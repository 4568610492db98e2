//===- FigureMatrix.cpp - The figure_matrix workload ----------------------===//
//
// The CPU and GPU+ALL cells of the nine Table-1 workloads on the Ultrabook
// model. Every cell has its own shared region (built during set-up) and
// gets a fresh Runtime for every run, so each run pays the cell's cold JIT
// exactly as a figure run does. Ops are counted (attempted, failed) per
// cell run; the throughput and latency metrics count rows, one workload's
// two cells.
//
// The timed phase is a stream of whole matrices (all 18 cells, heaviest
// first) dealt in that fixed order to CellJobs threads. A thread takes the
// next cell as soon as it is free, also across a matrix boundary, so no
// thread idles while another finishes a matrix's last heavy cell; new
// matrices start until the budget is spent. The thread that ran a cell
// verifies it right after the run, outside the op's timer. Inputs come
// from the src/workloads generators and do not depend on the seed.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Kernels.h"

#include "svm/ObjectStore.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <map>
#include <memory>
#include <thread>

using namespace concord;

namespace perfbench {

namespace {

/// Rows whose cells cost the most host time when the benchmark was written,
/// heaviest first: dealing them first in every matrix keeps the threads'
/// last cells short.
const char *const HeavyRows[] = {"FaceDetect", "Raytracer", "BarnesHut",
                                 "SkipList"};
/// Set-ups per run (about 2 s); setup_s is their median.
constexpr unsigned SetupReps = 12;
/// Rows cheap enough for the self-check size.
const char *const TinyRows[] = {"BFS", "BTree", "ClothPhysics",
                                "ConnectedComponent", "SSSP"};

struct Cell {
  std::unique_ptr<workloads::Workload> W;
  std::unique_ptr<svm::SharedRegion> Region;
  bool OnCpu = false;
  bool SetupOk = false;
  std::string Key;
  /// One run at a time: run() and verify() use the cell's region. Two
  /// matrices meet on a cell only if a thread deals it again while its
  /// previous run is still going, which the heavy-first order makes rare.
  std::mutex Mu;
};

/// One cell run of the stream.
struct CellOp {
  size_t Cell = 0;
  size_t Matrix = 0;
  double Ms = 0;      ///< Runtime construction + Workload::run.
  double VerifyS = 0; ///< Workload::verify, outside Ms.
  workloads::WorkloadRun Run;
};

unsigned heavyRank(const std::string &Name) {
  unsigned R = 0;
  for (const char *H : HeavyRows) {
    if (Name == H)
      return R;
    ++R;
  }
  return R;
}

/// Builds every cell's region and inputs; returns the summed workload
/// setup() time in ms.
double buildCells(const Config &C, std::vector<std::unique_ptr<Cell>> &Cells) {
  Cells.clear();
  double SetupMs = 0;
  for (bool OnCpu : {true, false}) {
    for (auto &W : workloads::allWorkloads()) {
      std::string Name = W->name();
      if (C.Tiny && std::find(std::begin(TinyRows), std::end(TinyRows),
                              Name) == std::end(TinyRows))
        continue;
      auto Cl = std::make_unique<Cell>();
      Cl->OnCpu = OnCpu;
      Cl->Key = Name + (OnCpu ? "/CPU" : "/GPU+ALL");
      // The figure harness's region size: allocation addresses, and so
      // the modelled cache behaviour, depend on it.
      Cl->Region = std::make_unique<svm::SharedRegion>(256 << 20);
      Cl->W = std::move(W);
      auto T0 = Clock::now();
      Cl->SetupOk = Cl->W->setup(*Cl->Region, 1);
      SetupMs += msSince(T0);
      Cells.push_back(std::move(Cl));
    }
  }
  std::stable_sort(Cells.begin(), Cells.end(),
                   [](const auto &A, const auto &B) {
                     unsigned RA = heavyRank(A->W->name()),
                              RB = heavyRank(B->W->name());
                     return RA != RB ? RA < RB : A->OnCpu > B->OnCpu;
                   });
  return SetupMs;
}

/// Runs and verifies one cell; \p Id tags its spans.
CellOp runCell(TraceLog &Log, Cell &Cl, const gpusim::SimOptions &Sim,
               uint64_t Id) {
  CellOp Op;
  std::lock_guard<std::mutex> Lock(Cl.Mu);
  if (!Cl.SetupOk) {
    Op.Run.Error = "setup failed (out of shared memory?)";
    return Op;
  }
  ScopedSpan CellSpan(Log, BenchLayer, "cell." + Cl.Key, Id);
  const auto Machine = gpusim::MachineConfig::ultrabook(); // Outlives RT.
  auto T0 = Clock::now();
  int64_t RtSpan =
      Log.open("runtime", "Runtime::Runtime", Id, CellSpan.index());
  runtime::Runtime RT(Machine, *Cl.Region,
                      transforms::PipelineOptions::gpuAll());
  RT.setSimOptions(Sim);
  Log.close(RtSpan);
  {
    // The cold JIT, the offloads and the simulation all happen inside
    // Workload::run, behind Runtime's offload entry points.
    ScopedSpan S(Log, "runtime", "Workload::run", Id, CellSpan.index());
    Op.Run = Cl.W->run(RT, Cl.OnCpu);
  }
  Op.Ms = msSince(T0);

  ScopedSpan S(Log, "workloads", "Workload::verify", Id, CellSpan.index());
  auto TV = Clock::now();
  std::string Error;
  if (!Op.Run.Ok)
    Op.Run.Error = "run failed: " + Op.Run.Error;
  else if (Op.Run.LastSim.Trapped)
    Op.Run.Error = "trapped: " + Op.Run.LastSim.TrapMessage;
  else if (!Cl.W->verify(&Error))
    Op.Run.Error = "verify failed: " + Error;
  Op.VerifyS = std::chrono::duration<double>(Clock::now() - TV).count();
  return Op;
}

struct StreamOut {
  std::vector<CellOp> Ops; ///< In dealing order.
  size_t Matrices = 0;
  double WallS = 0;
  double StartUs = 0, EndUs = 0;
};

/// Deals whole matrices to the cell threads until \p BudgetS seconds have
/// passed when a matrix would start (one matrix when tiny). Op ids continue
/// from \p NextId.
StreamOut runStream(const Config &C, TraceLog &Log,
                    std::vector<std::unique_ptr<Cell>> &Cells, double BudgetS,
                    uint64_t &NextId) {
  gpusim::SimOptions Sim;
  Sim.NumThreads = C.T.SimThreads;
  const size_t N = Cells.size();
  std::mutex DealMu; // Guards Next, End and Out.Ops.
  size_t Next = 0, End = C.Tiny ? N : SIZE_MAX;
  StreamOut Out;
  const uint64_t BaseId = NextId;

  Out.StartUs = nowUs();
  auto T0 = Clock::now();
  auto Worker = [&] {
    for (;;) {
      size_t Ix;
      {
        std::lock_guard<std::mutex> Lock(DealMu);
        if (Next % N == 0 && Next > 0 && msSince(T0) / 1e3 >= BudgetS)
          End = std::min(End, Next);
        if (Next >= End)
          return;
        Ix = Next++;
      }
      CellOp Op = runCell(Log, *Cells[Ix % N], Sim, BaseId + Ix);
      Op.Cell = Ix % N;
      Op.Matrix = Ix / N;
      std::lock_guard<std::mutex> Lock(DealMu);
      if (Out.Ops.size() <= Ix)
        Out.Ops.resize(Ix + 1);
      Out.Ops[Ix] = std::move(Op);
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned J = 0; J < C.T.CellJobs; ++J)
    Threads.emplace_back(Worker);
  for (std::thread &T : Threads)
    T.join();
  Out.WallS = msSince(T0) / 1e3;
  Out.EndUs = nowUs();
  Out.Matrices = End / N;
  NextId += End;
  return Out;
}

Record recordOf(const Cell &Cl, const CellOp &Op) {
  const workloads::WorkloadRun &Run = Op.Run;
  const gpusim::SimResult &S = Run.LastSim;
  Record Rec;
  Rec.Key = Cl.Key;
  auto Num = [&](const char *Name, double V) {
    Rec.Fields.emplace_back(Name, jsonNum(V));
  };
  Num("seconds", Run.Seconds);
  Num("joules", Run.Joules);
  Num("launches", Run.Launches);
  Num("hybrid_launches", Run.HybridLaunches);
  Num("last.cycles", S.Cycles);
  Num("last.seconds", S.Seconds);
  Num("last.joules", S.Joules);
  Num("last.warp_insts", double(S.WarpInstructions));
  Num("last.lane_ops", double(S.LaneOps));
  Num("last.mem_accesses", double(S.MemAccesses));
  Num("last.lines_touched", double(S.LinesTouched));
  Num("last.cache_hits", double(S.CacheHits));
  Num("last.cache_misses", double(S.CacheMisses));
  Num("last.l1_hits", double(S.L1Hits));
  Num("last.contention_events", double(S.ContentionEvents));
  Num("last.divergent_branches", double(S.DivergentBranches));
  Num("last.barriers", double(S.Barriers));
  Num("last.local_accesses", double(S.LocalAccesses));
  return Rec;
}

} // namespace

RunResult runFigureMatrix(const Config &C, TraceLog &Log) {
  RunResult R;

  // Set-up, repeated so setup_s is a median; the last set of cells is kept.
  std::vector<std::unique_ptr<Cell>> Cells;
  std::vector<double> SetupS, WorkloadSetupMs;
  for (unsigned Rep = 0; Rep < (C.Tiny ? 1u : SetupReps); ++Rep) {
    auto T0 = Clock::now();
    WorkloadSetupMs.push_back(buildCells(C, Cells));
    SetupS.push_back(msSince(T0) / 1e3);
  }
  R.set("setup_s", median(SetupS), "s");

  // An untraced stream gives the end-to-end metrics; a traced run spends
  // half its budget untraced (for the overhead) and half traced.
  uint64_t NextId = 1;
  const double Budget = C.Trace ? C.Seconds / 2 : C.Seconds;
  Log.setEnabled(false);
  StreamOut U = runStream(C, Log, Cells, Budget, NextId);
  StreamOut T;
  if (C.Trace) {
    Log.setEnabled(true);
    T = runStream(C, Log, Cells, Budget, NextId);
  }

  // The latency op is a row: one workload's CPU and GPU+ALL cell runs of
  // one matrix. Per row, the median over the matrices; the quantiles are
  // taken over those nine medians, so every row weighs the same in every
  // run. (Quantiles over single cells were less steady: the median fell
  // between two half-second cells.)
  std::map<std::string, std::vector<double>> RowMs;
  for (const StreamOut *S : {&U, &T})
    for (const CellOp &Op : S->Ops) {
      ++R.Attempted;
      const Cell &Cl = *Cells[Op.Cell];
      if (!Op.Run.Error.empty())
        R.fail(Cl.Key + ": " + Op.Run.Error);
      R.addRecord(recordOf(Cl, Op));
      if (S == &U) {
        auto &Row = RowMs[Cl.W->name()];
        Row.resize(std::max(Row.size(), Op.Matrix + 1), 0);
        Row[Op.Matrix] += Op.Ms;
      }
    }
  std::vector<double> RowMedians;
  for (auto &[Name, V] : RowMs)
    RowMedians.push_back(median(V));

  const double Matrices = double(std::max<size_t>(1, U.Matrices));
  R.set("wall_s", U.WallS / Matrices, "s");
  R.set("ops_per_s", double(RowMs.size()) * Matrices / U.WallS, "1/s");
  R.set("op_p50_ms", quantile(RowMedians, 0.5), "ms");
  R.set("op_p90_ms", quantile(RowMedians, 0.9), "ms");
  R.set("peak_rss_mb", peakRssMb(), "MiB");
  if (!C.Trace)
    return R;

  // Per-layer metrics from the traced stream: sums per matrix, medians
  // over its matrices.
  const size_t TM = std::max<size_t>(1, T.Matrices);
  // [device][matrix], device 0 the CPU model and 1 the GPU model.
  std::vector<double> Busy[2], SingleS[2], SingleInsts[2];
  for (unsigned Dev = 0; Dev < 2; ++Dev)
    for (auto *V : {Busy, SingleS, SingleInsts})
      V[Dev].assign(TM, 0);
  std::vector<double> VerifyS(TM, 0);
  std::map<std::string, std::vector<double>> RowBusy;
  double Warp = 0, Lane = 0, Mem = 0, Lines = 0, Hits = 0, Misses = 0,
         Contention = 0, Divergent = 0, Launches = 0, Compiles = 0;
  for (const CellOp &Op : T.Ops) {
    const Cell &Cl = *Cells[Op.Cell];
    const workloads::WorkloadRun &Run = Op.Run;
    const unsigned Dev = Cl.OnCpu ? 0 : 1;
    const size_t M = Op.Matrix;
    // Simulation time: the run without its one-time JIT.
    double S = std::max(0.0, Op.Ms / 1e3 - Run.CompileSeconds);
    Busy[Dev][M] += S;
    auto &Row = RowBusy[Cl.W->name()];
    Row.resize(TM, 0);
    Row[M] += S;
    // WorkloadRun exposes only the last launch's SimResult.
    if (Run.Launches == 1) {
      SingleS[Dev][M] += S;
      SingleInsts[Dev][M] += double(Run.LastSim.WarpInstructions);
    }
    VerifyS[M] += Op.VerifyS;
    if (M == 0) {
      const gpusim::SimResult &L = Run.LastSim;
      Warp += double(L.WarpInstructions);
      Lane += double(L.LaneOps);
      Mem += double(L.MemAccesses);
      Lines += double(L.LinesTouched);
      Hits += double(L.CacheHits);
      Misses += double(L.CacheMisses);
      Contention += double(L.ContentionEvents);
      Divergent += double(L.DivergentBranches);
      Launches += Run.Launches;
      Compiles += Run.CompileSeconds > 0 ? 1 : 0;
    }
  }
  auto NsPerInst = [&](unsigned Dev) {
    std::vector<double> V;
    for (size_t M = 0; M < TM; ++M)
      if (SingleInsts[Dev][M] > 0)
        V.push_back(SingleS[Dev][M] / SingleInsts[Dev][M] * 1e9);
    return median(V);
  };
  R.set("gpusim.cpu_model.busy_s", median(Busy[0]), "s");
  R.set("gpusim.gpu_model.busy_s", median(Busy[1]), "s");
  R.set("gpusim.cpu_model.host_ns_per_warp_inst", NsPerInst(0), "ns");
  R.set("gpusim.gpu_model.host_ns_per_warp_inst", NsPerInst(1), "ns");
  for (auto &W : workloads::allWorkloads()) {
    auto It = RowBusy.find(W->name());
    R.set(std::string("gpusim.row.") + W->name() + ".busy_s",
          It == RowBusy.end() ? 0.0 : median(It->second), "s");
  }
  R.set("gpusim.warp_insts", Warp, "count");
  R.set("gpusim.lane_ops", Lane, "count");
  R.set("gpusim.mem_accesses", Mem, "count");
  R.set("gpusim.lines_touched", Lines, "count");
  R.set("gpusim.llc_miss_ratio",
        Hits + Misses > 0 ? Misses / (Hits + Misses) : 0, "ratio");
  R.set("gpusim.contention_events", Contention, "count");
  R.set("gpusim.divergent_branches", Divergent, "count");
  R.set("runtime.jit_hit_ratio",
        Launches > 0 ? (Launches - Compiles) / Launches : 0, "ratio");

  uint64_t Peak = 0;
  std::vector<double> Frag;
  for (const auto &Cl : Cells) {
    Peak += Cl->Region->stats().PeakBytes;
    if (const svm::ObjectStore *Store = Cl->Region->objectStore())
      Frag.push_back(Store->fragmentation());
  }
  R.set("svm.peak_bytes", double(Peak), "bytes");
  R.set("svm.fragmentation", median(Frag), "ratio");
  R.set("workloads.setup_ms", median(WorkloadSetupMs), "ms");
  R.set("workloads.verify_s", median(VerifyS), "s");
  R.set("bench.trace_overhead",
        (T.WallS / double(TM)) / (U.WallS / Matrices) - 1.0, "ratio");
  R.set("bench.unattributed_share",
        uncoveredShare(Log.spans(), T.StartUs, T.EndUs), "ratio");
  return R;
}

} // namespace perfbench
