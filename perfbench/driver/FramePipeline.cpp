//===- FramePipeline.cpp - The frame_pipeline workload --------------------===//
//
// A closed loop on the async scheduler: one submitting thread keeps Window
// frames outstanding (24 tasks, below SchedulerOptions::MaxQueued, so
// submit() never blocks on backpressure) and retires the oldest frame
// before submitting the next. A frame is the dependent Axpb chain, an
// accumulate into the round's shared bins, a pointer chase and a strided
// pack; its buffers are allocated from and freed to the shared region in
// the loop. A round of frames ends with drain(), which folds the bins.
// Launches are small (1024 items, all on the GPU model), so per-task fixed
// cost (submit, verify, hazard scan, SOA staging, merge, launch set-up,
// SVM churn) dominates. The seed drives the input values, histogram keys
// and chase-list permutation.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Kernels.h"

#include "sched/Scheduler.h"
#include "svm/ObjectStore.h"

#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <new>
#include <unordered_map>

using namespace concord;

namespace perfbench {

namespace {

constexpr int HistBins = 64;
constexpr int ChaseItems = 32;
// 40 * 16 B nodes: a pool size no other allocation shares, so the pool
// hull the chase declares covers node arrays only.
constexpr int ChaseLen = 40;
constexpr int Window = 4;
constexpr int Stages = 3;
constexpr float Ks[Stages] = {1.25f, 0.75f, 1.5f};
constexpr float Bs[Stages] = {3.0f, -1.0f, 0.5f};
constexpr float PackK = 0.5f;
/// Set-ups per run (about 0.5 s: one costs a few ms); setup_s is their
/// median.
constexpr unsigned SetupReps = 200;
/// Shared allocations per frame: In, Buf[3], Keys, ChaseOut, PackOut and
/// the four bodies (the Axpb bodies share one).
constexpr size_t FrameAllocs = 11;
const char *const StageNames[] = {"axpb", "hist", "chase", "pack", "merge"};
enum StageIx { SAxpb, SHist, SChase, SPack, SMerge, NumStageKinds };

struct Sizes {
  int Items;
  int FramesPerRound;
};

/// Hook timestamps of one scheduler task.
struct TaskTimes {
  double StartUs = -1, FinishUs = -1;
  uint32_t Tid = 0;
};

struct TaskRec {
  sched::TaskHandle H;
  StageIx Stage = SAxpb;
  double SubmitUs = 0, SubmittedUs = 0;
  int64_t SubmitSpan = -1;
};

struct Frame {
  int Index = 0;
  float *In = nullptr;
  float *Buf[Stages] = {};
  int32_t *Keys = nullptr;
  float *ChaseOut = nullptr;
  float *PackOut = nullptr;
  float ChaseSum = 0;
  std::vector<void *> Allocs; ///< Everything freed when the frame retires.
  std::vector<TaskRec> Tasks;
};

/// Per-task samples of the timed phase. The untraced phase keeps only the
/// latencies (reserved up front), so peak RSS does not depend on how many
/// tasks a run manages.
struct Samples {
  explicit Samples(bool Detail) : Detail(Detail) { LatencyMs.reserve(1 << 20); }
  bool Detail;
  std::vector<double> LatencyMs, SubmitUs, QueueMs, ExecMs, AllocUs, FreeUs,
      DrainMs, RoundMs;
  std::vector<double> StageExecMs[NumStageKinds];
  double BusyMs[2] = {0, 0}; ///< Execute time by executing device.
  double WorkerBusyMs = 0;
  uint64_t Tasks = 0, JitHits = 0, Frames = 0;
  double StartUs = 0, EndUs = 0;
};

class Pipeline {
public:
  Pipeline(const Config &C, TraceLog &Log, Sizes Sz)
      : C(C), Log(Log), Sz(Sz), Machine(gpusim::MachineConfig::ultrabook()),
        Region(64 << 20), RT(Machine, Region), Rng(C.Seed) {
    RT.setFootprintPolicy(runtime::FootprintPolicy::Verify);
    gpusim::SimOptions Sim;
    Sim.NumThreads = C.T.SimThreads;
    RT.setSimOptions(Sim);
    // Node pools first and back to back, one per frame slot.
    for (int S = 0; S <= Window; ++S)
      Pools.push_back(Region.allocArray<ChaseNode>(ChaseLen));
    Bins = Region.allocArray<int32_t>(HistBins);
    std::memset(Bins, 0, HistBins * sizeof(int32_t));
    // JIT warm-up: compile every stage kernel (placement needs the
    // compiled schedule-free proof before the first submission).
    for (const runtime::KernelSpec &Spec :
         {specOf<Axpb>(), specOf<Hist>(), specOf<Chase>(), specOf<Pack>()})
      if (!RT.kernelFootprint(Spec))
        SetupError = "kernel " + Spec.BodyClass + " failed to compile";
    sched::SchedulerOptions SO;
    SO.NumWorkers = C.T.SchedWorkers;
    // Every task runs whole on the GPU model. With data-aware placement
    // (or hybrid splits) the device each task lands on depends on timing,
    // and identical runs differed by 10-15% in throughput.
    SO.DataAwarePlacement = false;
    SO.AllowHybrid = false;
    SO.OnTaskStart = [this](uint64_t Id) {
      std::lock_guard<std::mutex> Lock(HookMu);
      TaskTimes &T = Hooks[Id];
      T.StartUs = nowUs();
      T.Tid = TraceLog::threadId();
    };
    SO.OnTaskFinish = [this](uint64_t Id) {
      double Now = nowUs();
      std::lock_guard<std::mutex> Lock(HookMu);
      Hooks[Id].FinishUs = Now;
    };
    Sched = std::make_unique<sched::Scheduler>(RT, std::move(SO));
  }

  /// Runs rounds until \p Budget seconds are spent (one round when tiny).
  /// \p Detail keeps the per-layer samples as well.
  Samples run(double Budget, bool Detail, RunResult &R);

  svm::SharedRegion &region() { return Region; }
  runtime::Runtime &runtime() { return RT; }
  sched::Scheduler &scheduler() { return *Sched; }
  std::string SetupError;

private:
  void submitFrame(Frame &F, Samples &S, RunResult &R);
  void retireFrame(Frame &F, Samples &S, RunResult &R);
  void *alloc(size_t Bytes, Frame &F, Samples &S);
  void noteExecuted(uint64_t Id, StageIx Stage, int64_t Parent, Samples &S);

  const Config &C;
  TraceLog &Log;
  Sizes Sz;
  const gpusim::MachineConfig Machine; ///< Referenced by RT.
  svm::SharedRegion Region;
  runtime::Runtime RT;
  perfbench::Rng Rng;
  std::vector<ChaseNode *> Pools;
  int32_t *Bins = nullptr;
  int NextFrame = 0;
  std::mutex HookMu; ///< Guards Hooks.
  std::unordered_map<uint64_t, TaskTimes> Hooks;
  std::unique_ptr<sched::Scheduler> Sched; ///< Last: joins workers first.
};

void *Pipeline::alloc(size_t Bytes, Frame &F, Samples &S) {
  auto T0 = Clock::now();
  void *P = RT.sharedAlloc(Bytes);
  if (S.Detail)
    S.AllocUs.push_back(msSince(T0) * 1e3);
  if (P)
    F.Allocs.push_back(P);
  return P;
}

void Pipeline::submitFrame(Frame &F, Samples &S, RunResult &R) {
  F.Index = NextFrame++;
  const size_t N = size_t(Sz.Items);
  Axpb *AxpbBodies = nullptr;
  Hist *HistBody = nullptr;
  Chase *ChaseBody = nullptr;
  Pack *PackBody = nullptr;
  {
    ScopedSpan Sp(Log, "svm", "svm.sharedAlloc", uint64_t(F.Index));
    F.In = static_cast<float *>(alloc(N * sizeof(float), F, S));
    for (float *&B : F.Buf)
      B = static_cast<float *>(alloc(N * sizeof(float), F, S));
    F.Keys = static_cast<int32_t *>(alloc(HistBins * sizeof(int32_t), F, S));
    F.ChaseOut = static_cast<float *>(alloc(ChaseItems * sizeof(float), F, S));
    F.PackOut = static_cast<float *>(alloc(2 * N * sizeof(float), F, S));
    AxpbBodies = static_cast<Axpb *>(alloc(Stages * sizeof(Axpb), F, S));
    HistBody = static_cast<Hist *>(alloc(sizeof(Hist), F, S));
    ChaseBody = static_cast<Chase *>(alloc(sizeof(Chase), F, S));
    PackBody = static_cast<Pack *>(alloc(sizeof(Pack), F, S));
  }
  if (F.Allocs.size() != FrameAllocs) {
    ++R.Attempted;
    R.fail("frame " + std::to_string(F.Index) + ": shared allocation failed");
    return;
  }

  // Seeded inputs: halves keep every float result exact on host and device.
  for (size_t I = 0; I < N; ++I)
    F.In[I] = float(Rng.below(97)) * 0.5f;
  std::vector<int32_t> Keys(HistBins);
  for (int I = 0; I < HistBins; ++I)
    Keys[size_t(I)] = I;
  // A permutation: within one launch every work-item owns its bin.
  Rng.shuffle(Keys);
  std::memcpy(F.Keys, Keys.data(), sizeof(int32_t) * HistBins);
  ChaseNode *Nodes = Pools[size_t(F.Index % (Window + 1))];
  std::vector<int> Order(ChaseLen);
  for (int K = 0; K < ChaseLen; ++K)
    Order[size_t(K)] = K;
  Rng.shuffle(Order);
  F.ChaseSum = 0;
  for (int K = 0; K < ChaseLen; ++K) {
    ChaseNode &Node = Nodes[Order[size_t(K)]];
    Node.Next = &Nodes[Order[size_t((K + 1) % ChaseLen)]];
    Node.Val = float(Rng.below(17)) * 0.5f;
    F.ChaseSum += Node.Val;
  }

  auto Submit = [&](StageIx Stage, const runtime::KernelSpec &Spec,
                    int64_t Items, void *Body, sched::AccessSet Access) {
    sched::TaskDesc D;
    D.Spec = Spec;
    D.N = Items;
    D.BodyPtr = Body;
    char Label[32];
    std::snprintf(Label, sizeof(Label), "f%d/%s", F.Index, StageNames[Stage]);
    D.Label = Label;
    TaskRec T;
    T.Stage = Stage;
    T.SubmitUs = nowUs();
    T.H = Sched->submit(std::move(D), std::move(Access));
    T.SubmittedUs = nowUs();
    if (S.Detail)
      S.SubmitUs.push_back(T.SubmittedUs - T.SubmitUs);
    if (Log.enabled())
      T.SubmitSpan =
          Log.add(Span{"Scheduler::submit." + std::string(StageNames[Stage]),
                       "sched", TraceLog::threadId(), T.SubmitUs,
                       T.SubmittedUs, T.H.id(), -1});
    F.Tasks.push_back(std::move(T));
  };

  for (int St = 0; St < Stages; ++St) {
    float *In = St == 0 ? F.In : F.Buf[St - 1];
    new (&AxpbBodies[St]) Axpb{In, F.Buf[St], Ks[St], Bs[St]};
    Submit(SAxpb, specOf<Axpb>(), Sz.Items, &AxpbBodies[St],
           sched::AccessSet().readArray(In, N).writeArray(F.Buf[St], N));
  }
  new (HistBody) Hist{F.Keys, Bins};
  Submit(SHist, specOf<Hist>(), HistBins, HistBody,
         sched::AccessSet()
             .readArray(F.Keys, HistBins)
             .accumulateArray(Bins, HistBins));
  new (ChaseBody) Chase{Nodes, F.ChaseOut, ChaseLen};
  svm::MemRange Hull = Region.poolExtent(Nodes);
  Submit(SChase, specOf<Chase>(), ChaseItems, ChaseBody,
         sched::AccessSet()
             .read(reinterpret_cast<const void *>(Hull.Begin), Hull.size())
             .writeArray(F.ChaseOut, ChaseItems));
  new (PackBody) Pack{F.In, F.PackOut, PackK};
  Submit(SPack, specOf<Pack>(), Sz.Items, PackBody,
         sched::AccessSet().readArray(F.In, N).writeArray(F.PackOut, 2 * N));
}

void Pipeline::noteExecuted(uint64_t Id, StageIx Stage, int64_t Parent,
                            Samples &S) {
  TaskTimes T;
  {
    std::lock_guard<std::mutex> Lock(HookMu);
    auto It = Hooks.find(Id);
    if (It == Hooks.end())
      return;
    T = It->second;
    Hooks.erase(It);
  }
  if (!S.Detail)
    return;
  double Ms = (T.FinishUs - T.StartUs) / 1e3;
  S.ExecMs.push_back(Ms);
  S.StageExecMs[Stage].push_back(Ms);
  S.WorkerBusyMs += Ms;
  if (Log.enabled())
    Log.add(Span{std::string("task.") + StageNames[Stage], "sched.execute",
                 T.Tid, T.StartUs, T.FinishUs, Id, Parent});
}

void Pipeline::retireFrame(Frame &F, Samples &S, RunResult &R) {
  unsigned OkTasks = 0;
  for (TaskRec &T : F.Tasks) {
    const sched::TaskResult &Res = T.H.wait();
    ++R.Attempted;
    ++S.Tasks;
    if (Res.Ok)
      ++OkTasks;
    else
      R.fail(Res.Label + ": " + Res.Error);
    if (Res.Report.JitCached)
      ++S.JitHits;
    TaskTimes TT;
    {
      std::lock_guard<std::mutex> Lock(HookMu);
      auto It = Hooks.find(T.H.id());
      if (It == Hooks.end())
        continue; // Rejected at submit: never executed.
      TT = It->second;
    }
    S.LatencyMs.push_back((TT.FinishUs - T.SubmitUs) / 1e3);
    if (S.Detail) {
      S.QueueMs.push_back((TT.StartUs - T.SubmittedUs) / 1e3);
      S.BusyMs[Res.Report.Executed == runtime::Device::CPU ? 0 : 1] +=
          (TT.FinishUs - TT.StartUs) / 1e3;
    }
    noteExecuted(T.H.id(), T.Stage, T.SubmitSpan, S);
  }
  if (!F.Tasks.empty()) {
    ScopedSpan Sp(Log, BenchLayer, "verify.frame", uint64_t(F.Index));
    const size_t N = size_t(Sz.Items);
    bool Ok = true;
    for (size_t I = 0; Ok && I < N; ++I) {
      float V = F.In[I];
      for (int St = 0; St < Stages; ++St)
        V = V * Ks[St] + Bs[St];
      Ok = F.Buf[Stages - 1][I] == V &&
           F.PackOut[2 * I] == F.In[I] * PackK &&
           F.PackOut[2 * I + 1] == F.In[I] + PackK;
    }
    for (int I = 0; Ok && I < ChaseItems; ++I)
      Ok = F.ChaseOut[I] == F.ChaseSum;
    // Every task of the frame fed the checked buffers.
    if (!Ok)
      R.fail("frame " + std::to_string(F.Index) + ": wrong output", OkTasks);
  }
  {
    ScopedSpan Sp(Log, "svm", "svm.sharedFree", uint64_t(F.Index));
    for (void *P : F.Allocs) {
      auto T0 = Clock::now();
      RT.sharedFree(P);
      if (S.Detail)
        S.FreeUs.push_back(msSince(T0) * 1e3);
    }
  }
  ++S.Frames;
}

Samples Pipeline::run(double Budget, bool Detail, RunResult &R) {
  Samples S(Detail);
  S.StartUs = nowUs();
  double Spent = 0;
  do {
    auto T0 = Clock::now();
    std::deque<Frame> Live;
    for (int F = 0; F < Sz.FramesPerRound; ++F) {
      if (Live.size() == Window) {
        retireFrame(Live.front(), S, R);
        Live.pop_front();
      }
      Live.emplace_back();
      submitFrame(Live.back(), S, R);
    }
    while (!Live.empty()) {
      retireFrame(Live.front(), S, R);
      Live.pop_front();
    }
    auto TD = Clock::now();
    {
      ScopedSpan Sp(Log, "sched", "Scheduler::drain", 0);
      Sched->drain();
    }
    S.DrainMs.push_back(msSince(TD));
    // Whatever hook entries remain belong to the injected merge tasks.
    std::vector<uint64_t> MergeIds;
    {
      std::lock_guard<std::mutex> Lock(HookMu);
      for (auto &[Id, T] : Hooks)
        MergeIds.push_back(Id);
    }
    for (uint64_t Id : MergeIds)
      noteExecuted(Id, SMerge, -1, S);
    // A wrong bin fails the round's accumulate tasks.
    for (int B = 0; B < HistBins; ++B)
      if (Bins[B] != Sz.FramesPerRound) {
        R.fail("bin " + std::to_string(B) + ": expected " +
                   std::to_string(Sz.FramesPerRound) + ", got " +
                   std::to_string(Bins[B]),
               unsigned(Sz.FramesPerRound));
        break;
      }
    std::memset(Bins, 0, HistBins * sizeof(int32_t));
    S.RoundMs.push_back(msSince(T0));
    Spent += S.RoundMs.back() / 1e3;
  } while (!C.Tiny && Spent < Budget);
  S.EndUs = nowUs();
  return S;
}

} // namespace

RunResult runFramePipeline(const Config &C, TraceLog &Log) {
  RunResult R;
  const Sizes Sz = C.Tiny ? Sizes{512, 4} : Sizes{1024, 32};

  // Set-up (region, runtime, JIT warm-up, scheduler), repeated so setup_s
  // is a median; the last pipeline is kept.
  std::unique_ptr<Pipeline> P;
  std::vector<double> SetupS;
  for (unsigned Rep = 0; Rep < (C.Tiny ? 1u : SetupReps); ++Rep) {
    P.reset();
    auto T0 = Clock::now();
    P = std::make_unique<Pipeline>(C, Log, Sz);
    SetupS.push_back(msSince(T0) / 1e3);
  }
  R.set("setup_s", median(SetupS), "s");
  if (!P->SetupError.empty()) {
    ++R.Attempted;
    R.fail(P->SetupError);
    return R;
  }

  double Budget = C.Trace ? C.Seconds / 2 : C.Seconds;
  Log.setEnabled(false);
  Samples U = P->run(Budget, /*Detail=*/false, R);
  auto RoundsTotalS = [](const Samples &S) {
    double T = 0;
    for (double Ms : S.RoundMs)
      T += Ms / 1e3;
    return T;
  };
  R.set("wall_s", median(U.RoundMs) / 1e3, "s");
  R.set("ops_per_s", double(U.Tasks) / RoundsTotalS(U), "1/s");
  R.set("op_p50_ms", quantile(U.LatencyMs, 0.5), "ms");
  R.set("op_p90_ms", quantile(U.LatencyMs, 0.9), "ms");
  R.set("peak_rss_mb", peakRssMb(), "MiB");
  if (!C.Trace)
    return R;

  sched::Scheduler::Stats St0 = P->scheduler().stats();
  runtime::RefinementStats RS0 = P->runtime().refinementStats();
  Log.setEnabled(true);
  Samples S = P->run(Budget, /*Detail=*/true, R);
  sched::Scheduler::Stats St = P->scheduler().stats();
  runtime::RefinementStats RS = P->runtime().refinementStats();

  const double Frames = double(std::max<uint64_t>(1, S.Frames));
  auto PerFrame = [&](uint64_t A, uint64_t B) { return double(B - A) / Frames; };
  auto Ratio = [](double Num, double Den) { return Den > 0 ? Num / Den : 0; };
  R.set("sched.submit_us_p50", quantile(S.SubmitUs, 0.5), "us");
  R.set("sched.submit_us_p90", quantile(S.SubmitUs, 0.9), "us");
  R.set("sched.queue_ms_p50", quantile(S.QueueMs, 0.5), "ms");
  R.set("sched.execute_ms_p50", quantile(S.ExecMs, 0.5), "ms");
  for (int K = 0; K < NumStageKinds; ++K)
    R.set(std::string("sched.stage.") + StageNames[K] + ".execute_ms_p50",
          quantile(S.StageExecMs[K], 0.5), "ms");
  R.set("sched.worker_busy_ratio",
        Ratio(S.WorkerBusyMs / 1e3,
              RoundsTotalS(S) * double(C.T.SchedWorkers)),
        "ratio");
  R.set("sched.hazard_edges_per_task",
        Ratio(double(St.HazardEdges - St0.HazardEdges),
              double(St.Submitted - St0.Submitted)),
        "ratio");
  R.set("sched.accum_tasks", PerFrame(St0.AccumTasks, St.AccumTasks),
        "1/frame");
  R.set("sched.merge_tasks", PerFrame(St0.MergeTasks, St.MergeTasks),
        "1/frame");
  double Resident = double(St.ResidentBytes - St0.ResidentBytes);
  double Fetched = double(St.FetchedBytes - St0.FetchedBytes);
  R.set("sched.resident_ratio", Ratio(Resident, Resident + Fetched), "ratio");
  R.set("sched.verify_rejected",
        double(St.VerifyRejected - St0.VerifyRejected), "count");
  R.set("sched.drain_ms", quantile(S.DrainMs, 0.5), "ms");

  R.set("runtime.jit_hit_ratio", Ratio(double(S.JitHits), double(S.Tasks)),
        "ratio");
  R.set("runtime.soa_launches", PerFrame(RS0.SoaLaunches, RS.SoaLaunches),
        "1/frame");
  R.set("runtime.soa_fallbacks", PerFrame(RS0.SoaFallbacks, RS.SoaFallbacks),
        "1/frame");
  R.set("runtime.soa_staged_bytes",
        PerFrame(RS0.SoaStagedBytes, RS.SoaStagedBytes), "B/frame");
  const double Rounds = double(std::max<size_t>(1, S.RoundMs.size()));
  R.set("gpusim.cpu_model.busy_s", S.BusyMs[0] / 1e3 / Rounds, "s");
  R.set("gpusim.gpu_model.busy_s", S.BusyMs[1] / 1e3 / Rounds, "s");

  R.set("svm.alloc_us_p50", quantile(S.AllocUs, 0.5), "us");
  R.set("svm.free_us_p50", quantile(S.FreeUs, 0.5), "us");
  R.set("svm.peak_bytes", double(P->region().stats().PeakBytes), "bytes");
  const svm::ObjectStore *Store = P->region().objectStore();
  R.set("svm.fragmentation", Store ? Store->fragmentation() : 0, "ratio");

  R.set("bench.trace_overhead", median(S.RoundMs) / median(U.RoundMs) - 1.0,
        "ratio");
  R.set("bench.unattributed_share",
        uncoveredShare(Log.spans(), S.StartUs, S.EndUs), "ratio");

  // The fixed cost of one warm launch, outside the traced rounds.
  probeLaunchFixed(C, Log, R);
  return R;
}

} // namespace perfbench
