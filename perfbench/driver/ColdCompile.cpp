//===- ColdCompile.cpp - The cold_compile workload ------------------------===//
//
// Per GPU configuration, a fresh Runtime shared by CompileThreads threads
// that cold-compile all fourteen kernels (the ten workload kernels and the
// frame pipeline's four) in a seed-shuffled order. This is the JIT cache's
// write path: frontend, every pipeline pass, the analyses and codegen run
// for every op, and concurrent threads meet the cache-wide compile lock.
// Nothing is simulated. Each compile's diagnostics, op mix and footprint
// precision classes are checked against goldens (run.py).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Kernels.h"

#include "analysis/Footprint.h"
#include "bench/Harness.h"
#include "runtime/ThreadPool.h"

using namespace concord;
using bench::GpuConfigNames;
using bench::NumGpuConfigs;

namespace perfbench {

namespace {

/// Set-ups per run (about 2 s); setup_s is their median.
constexpr unsigned SetupReps = 15;

struct CompileOp {
  unsigned Config = 0;
  size_t Spec = 0;
  double Ms = 0;
  Record Rec;
};

Record recordOf(runtime::Runtime &RT, const runtime::KernelSpec &Spec,
                const std::string &Diags, unsigned Config) {
  Record Rec;
  Rec.Key = std::string(GpuConfigNames[Config]) + "/" + Spec.BodyClass;
  Rec.Fields.emplace_back("diagnostics", jsonStr(Diags));
  codegen::OpMixStats Mix;
  std::string Error;
  bool MixOk = RT.staticStats(Spec, &Mix, &Error);
  Rec.Fields.emplace_back("opmix.ok", MixOk ? "true" : "false");
  Rec.Fields.emplace_back("opmix.total", jsonNum(double(Mix.Total)));
  Rec.Fields.emplace_back("opmix.control", jsonNum(double(Mix.ControlFlow)));
  Rec.Fields.emplace_back("opmix.memory", jsonNum(double(Mix.Memory)));
  const analysis::KernelFootprint *FP = RT.kernelFootprint(Spec);
  unsigned Kinds[5] = {0, 0, 0, 0, 0};
  if (FP)
    for (const analysis::FootprintEntry &E : FP->Entries)
      ++Kinds[unsigned(E.Kind)];
  Rec.Fields.emplace_back("footprint.analyzed",
                          FP && FP->Analyzed ? "true" : "false");
  const char *KindNames[5] = {"none", "exact", "affine", "bounded", "top"};
  for (unsigned K = 0; K < 5; ++K)
    Rec.Fields.emplace_back(std::string("footprint.") + KindNames[K],
                            jsonNum(Kinds[K]));
  return Rec;
}

struct RoundOut {
  double WallMs = 0;
  std::vector<CompileOp> Ops;
};

RoundOut runRound(const Config &C, TraceLog &Log, Rng &Order,
                  const std::vector<runtime::KernelSpec> &Specs,
                  uint64_t &NextId) {
  RoundOut Out;
  const auto Machine = gpusim::MachineConfig::ultrabook();
  runtime::ThreadPool Pool(C.T.CompileThreads);
  auto T0 = Clock::now();
  for (unsigned Cfg = 0; Cfg < NumGpuConfigs; ++Cfg) {
    std::vector<size_t> Ix(Specs.size());
    for (size_t I = 0; I < Ix.size(); ++I)
      Ix[I] = I;
    Order.shuffle(Ix);
    const uint64_t BaseId = NextId;
    NextId += Ix.size();

    ScopedSpan CfgSpan(Log, BenchLayer,
                       std::string("config.") + GpuConfigNames[Cfg], BaseId);
    int64_t RtSpan = Log.open("runtime", "Runtime::Runtime", BaseId,
                              CfgSpan.index());
    svm::SharedRegion Region(16 << 20);
    runtime::Runtime RT(Machine, Region, bench::gpuConfig(Cfg));
    Log.close(RtSpan);
    std::vector<CompileOp> Ops(Ix.size());
    std::vector<std::string> Diags(Ix.size());
    Pool.parallelFor(int64_t(Ix.size()), [&](int64_t I) {
      const runtime::KernelSpec &Spec = Specs[Ix[size_t(I)]];
      ScopedSpan S(Log, "runtime", "Runtime::compile." + Spec.BodyClass,
                   BaseId + uint64_t(I), CfgSpan.index());
      auto TC = Clock::now();
      Diags[size_t(I)] = RT.diagnosticsFor(Spec);
      Ops[size_t(I)].Ms = msSince(TC);
    });
    // Outside the timed compile: read the cached results back.
    ScopedSpan Readback(Log, "runtime", "Runtime::staticStats+kernelFootprint",
                        BaseId, CfgSpan.index());
    for (size_t I = 0; I < Ix.size(); ++I) {
      Ops[I].Config = Cfg;
      Ops[I].Spec = Ix[I];
      Ops[I].Rec = recordOf(RT, Specs[Ix[I]], Diags[I], Cfg);
    }
    Out.Ops.insert(Out.Ops.end(), Ops.begin(), Ops.end());
  }
  Out.WallMs = msSince(T0);
  return Out;
}

} // namespace

RunResult runColdCompile(const Config &C, TraceLog &Log) {
  RunResult R;
  // Set-up: the kernel list and one solo warm-up compile of every kernel
  // in a throwaway runtime, so the first timed round starts with the
  // process's code and allocator as warm as the later ones. Repeated so
  // setup_s is a median.
  const std::vector<runtime::KernelSpec> Specs = allKernelSpecs();
  const auto Machine = gpusim::MachineConfig::ultrabook();
  std::vector<double> SetupS;
  for (unsigned Rep = 0; Rep < (C.Tiny ? 1u : SetupReps); ++Rep) {
    auto T0 = Clock::now();
    svm::SharedRegion Region(16 << 20);
    runtime::Runtime RT(Machine, Region);
    for (const runtime::KernelSpec &Spec : allKernelSpecs())
      (void)RT.diagnosticsFor(Spec);
    SetupS.push_back(msSince(T0) / 1e3);
  }
  R.set("setup_s", median(SetupS), "s");

  // The traced run first probes the compile layers solo: their per-layer
  // metrics, and each kernel's solo compile time for the wait metric.
  std::map<std::string, double> SoloMs;
  if (C.Trace) {
    Log.setEnabled(true);
    SoloMs = probeCompileLayers(C, Log, R);
  }

  Rng Order(C.Seed);
  uint64_t NextId = 1;
  std::vector<double> WallMs, TracedWallMs, OpMs, WaitMs;
  double StartUs = 0, EndUs = 0;
  double Budget = C.Trace ? C.Seconds / 2 : C.Seconds;
  for (bool Traced : {false, true}) {
    if (Traced && !C.Trace)
      break;
    Log.setEnabled(Traced);
    if (Traced)
      StartUs = nowUs();
    double Spent = 0;
    do {
      RoundOut Out = runRound(C, Log, Order, Specs, NextId);
      (Traced ? TracedWallMs : WallMs).push_back(Out.WallMs);
      Spent += Out.WallMs / 1e3;
      for (CompileOp &Op : Out.Ops) {
        ++R.Attempted;
        const std::string &Body = Specs[Op.Spec].BodyClass;
        if (!Traced)
          OpMs.push_back(Op.Ms);
        else if (Op.Config == NumGpuConfigs - 1 && SoloMs.count(Body))
          WaitMs.push_back(Op.Ms - SoloMs.at(Body));
        R.addRecord(std::move(Op.Rec));
      }
    } while (!C.Tiny && Spent < Budget);
    if (Traced)
      EndUs = nowUs();
  }

  double TotalMs = 0;
  for (double W : WallMs)
    TotalMs += W;
  R.set("wall_s", median(WallMs) / 1e3, "s");
  R.set("ops_per_s", double(OpMs.size()) / (TotalMs / 1e3), "1/s");
  R.set("op_p50_ms", quantile(OpMs, 0.5), "ms");
  R.set("op_p90_ms", quantile(OpMs, 0.9), "ms");
  R.set("peak_rss_mb", peakRssMb(), "MiB");
  if (!C.Trace)
    return R;

  R.set("runtime.compile_wait_ms_p50", quantile(WaitMs, 0.5), "ms");
  R.set("runtime.jit_hit_ratio", 0, "ratio"); // Every op is a cold compile.
  R.set("bench.trace_overhead", median(TracedWallMs) / median(WallMs) - 1.0,
        "ratio");
  R.set("bench.unattributed_share",
        uncoveredShare(Log.spans(), StartUs, EndUs), "ratio");
  return R;
}

} // namespace perfbench
