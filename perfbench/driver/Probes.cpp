//===- Probes.cpp - Compile-layer and launch-cost probes ------------------===//
//
// The compile probe runs in cold_compile's traced run and the launch probe
// in frame_pipeline's: the workloads whose end-to-end metrics those layers
// move.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Kernels.h"

#include "analysis/Coalescing.h"
#include "analysis/Commutativity.h"
#include "analysis/Footprint.h"
#include "analysis/PointsTo.h"
#include "codegen/CodeGen.h"
#include "frontend/Compile.h"
#include "gpusim/MachineConfig.h"

#include <atomic>

using namespace concord;

namespace perfbench {

/// Pass names of the GPU+ALL pipeline, in first-run order (soaLayout runs
/// only inside the runtime's SOA sibling compile).
static const char *const PassNames[] = {
    "tailRecursionElim", "devirtualize", "inlineCalls",  "simplifyCFG",
    "mem2reg",           "constantFold", "cse",          "dce",
    "promoteBodyFields", "loopUnroll",   "l3ContentionOpt", "svmLowering",
    "licm"};

namespace {
/// Milliseconds of one direct, layer-by-layer compile, summed over kernels.
struct LayerTimes {
  double Parse = 0, StaticChecks = 0, Codegen = 0;
  double Footprint = 0, Commut = 0, Coalescing = 0, AliasLint = 0;
  std::map<std::string, double> Pass;
  double IrInsts = 0, BytecodeInsts = 0;
  double total() const {
    double T = Parse + StaticChecks + Codegen + Footprint + Commut +
               Coalescing + AliasLint;
    for (auto &[Name, Ms] : Pass)
      T += Ms;
    return T;
  }
};
} // namespace

/// Compiles \p Spec by calling each layer's entry point in the order the
/// runtime does; returns false (with \p Error) when a layer fails.
static bool compileByLayer(const runtime::KernelSpec &Spec, TraceLog &Log,
                           uint64_t Id, LayerTimes &T, std::string &Error) {
  ScopedSpan Top(Log, BenchLayer, "direct." + Spec.BodyClass, Id);
  DiagnosticEngine Diags;
  auto T0 = Clock::now();
  std::unique_ptr<cir::Module> M;
  cir::Function *Entry = nullptr;
  {
    ScopedSpan S(Log, "frontend", "frontend::compileProgram", Id, Top.index());
    M = frontend::compileProgram(Spec.Source, Spec.BodyClass, Diags);
    if (M)
      Entry = frontend::createKernelEntry(*M, Spec.BodyClass, Diags);
  }
  T.Parse += msSince(T0);
  if (!M || !Entry) {
    Error = Spec.BodyClass + ": frontend failed: " + Diags.str();
    return false;
  }
  const std::string KernelName = Entry->name();

  transforms::PipelineOptions Opts = transforms::PipelineOptions::gpuAll();
  transforms::PipelineStats Stats;
  std::string VerifyError;
  int64_t PipeSpan =
      Log.open("transforms", "transforms::runPipeline", Id, Top.index());
  auto Last = Clock::now();
  double LastUs = nowUs();
  // The hook is not part of the runtime's cache-key fingerprint, so the
  // same options compile identically with and without it.
  Opts.AfterPassHook = [&](cir::Module &, const char *Pass) {
    double Ms = msSince(Last);
    T.Pass[Pass] += Ms;
    double NowUs = nowUs();
    Log.add(Span{std::string("transforms.pass.") + Pass, "transforms",
                 TraceLog::threadId(), LastUs, NowUs, Id, PipeSpan});
    Last = Clock::now();
    LastUs = NowUs;
  };
  bool PipeOk =
      transforms::runPipeline(*M, Opts, Stats, &VerifyError, &Diags);
  T.StaticChecks += msSince(Last);
  Log.add(Span{"transforms.static_checks", "transforms", TraceLog::threadId(),
               LastUs, nowUs(), Id, PipeSpan});
  Log.close(PipeSpan);
  if (!PipeOk) {
    Error = Spec.BodyClass + ": pipeline failed: " + VerifyError;
    return false;
  }
  for (const auto &F : M->functions())
    if (F->isKernel())
      for (const auto &BB : *F)
        T.IrInsts += double(BB->size());

  auto TC = Clock::now();
  codegen::CodeGenResult CG;
  {
    ScopedSpan S(Log, "codegen", "codegen::compileModule", Id, Top.index());
    CG = codegen::compileModule(*M);
  }
  T.Codegen += msSince(TC);
  if (!CG.ok()) {
    Error = Spec.BodyClass + ": codegen failed: " + CG.Error;
    return false;
  }
  for (const codegen::BKernel &K : CG.Program.Kernels)
    T.BytecodeInsts += double(K.Code.size());

  cir::Function *KF = M->findFunction(KernelName);
  if (!KF) {
    Error = Spec.BodyClass + ": kernel function vanished";
    return false;
  }
  auto Time = [&](const char *Name, double &Acc, auto &&Fn) {
    ScopedSpan S(Log, "analysis", Name, Id, Top.index());
    auto TA = Clock::now();
    Fn();
    Acc += msSince(TA);
  };
  Time("analysis::computeFootprint", T.Footprint,
       [&] { (void)analysis::computeFootprint(*KF); });
  Time("analysis::computeCommutativity", T.Commut, [&] {
    (void)analysis::computeCommutativity(*KF, Opts.RelaxedFPReduction);
  });
  Time("analysis::computeCoalescing", T.Coalescing,
       [&] { (void)analysis::computeCoalescing(*KF); });
  Time("analysis::lintPointerAliases", T.AliasLint,
       [&] { (void)analysis::lintPointerAliases(*KF); });
  return true;
}

std::map<std::string, double> probeCompileLayers(const Config &C,
                                                 TraceLog &Log,
                                                 RunResult &R) {
  const std::vector<runtime::KernelSpec> Specs = allKernelSpecs();
  const unsigned Probes = C.Tiny ? 1 : 3;
  auto Machine = gpusim::MachineConfig::ultrabook();

  std::vector<LayerTimes> Direct(Probes);
  std::map<std::string, std::vector<double>> Solo;
  std::vector<double> SoloTotal, PipelineRuns;
  uint64_t Id = 1u << 30; // Probe ids stay clear of workload op ids.
  for (unsigned P = 0; P < Probes; ++P) {
    ScopedSpan Probe(Log, BenchLayer, "probe.compile", Id);
    // Solo cold compiles through the Runtime, one fresh cache per probe.
    std::atomic<uint64_t> Runs{0};
    transforms::PipelineOptions Opts = transforms::PipelineOptions::gpuAll();
    Opts.AfterPassHook = [&Runs](cir::Module &, const char *Pass) {
      if (std::string_view(Pass) == PassNames[0])
        ++Runs;
    };
    svm::SharedRegion Region(64 << 20);
    runtime::Runtime RT(Machine, Region, Opts);
    double Total = 0;
    for (const runtime::KernelSpec &Spec : Specs) {
      ScopedSpan S(Log, "runtime", "Runtime::compile." + Spec.BodyClass, ++Id,
                   Probe.index());
      auto T0 = Clock::now();
      (void)RT.diagnosticsFor(Spec);
      double Ms = msSince(T0);
      Solo[Spec.BodyClass].push_back(Ms);
      Total += Ms;
    }
    SoloTotal.push_back(Total);
    PipelineRuns.push_back(double(Runs.load()) /
                           double(std::max<size_t>(1, RT.programCacheSize())));

    for (const runtime::KernelSpec &Spec : Specs) {
      std::string Error;
      ++R.Attempted;
      if (!compileByLayer(Spec, Log, ++Id, Direct[P], Error))
        R.fail("compile probe: " + Error);
    }
  }

  auto Med = [&](auto Field) {
    std::vector<double> V;
    for (const LayerTimes &T : Direct)
      V.push_back(Field(T));
    return median(V);
  };
  R.set("frontend.parse_ms", Med([](auto &T) { return T.Parse; }), "ms");
  for (const char *Pass : PassNames)
    R.set(std::string("transforms.pass.") + Pass + ".ms",
          Med([&](auto &T) {
            auto It = T.Pass.find(Pass);
            return It == T.Pass.end() ? 0.0 : It->second;
          }),
          "ms");
  R.set("transforms.static_checks_ms",
        Med([](auto &T) { return T.StaticChecks; }), "ms");
  R.set("transforms.pipeline_runs_per_program", median(PipelineRuns),
        "ratio");
  R.set("transforms.ir_insts_after", Med([](auto &T) { return T.IrInsts; }),
        "count");
  R.set("codegen.compile_module_ms", Med([](auto &T) { return T.Codegen; }),
        "ms");
  R.set("codegen.bytecode_insts",
        Med([](auto &T) { return T.BytecodeInsts; }), "count");
  R.set("analysis.footprint_ms", Med([](auto &T) { return T.Footprint; }),
        "ms");
  R.set("analysis.commutativity_ms", Med([](auto &T) { return T.Commut; }),
        "ms");
  R.set("analysis.coalescing_ms", Med([](auto &T) { return T.Coalescing; }),
        "ms");
  R.set("analysis.alias_lint_ms", Med([](auto &T) { return T.AliasLint; }),
        "ms");
  R.set("runtime.compile_unattributed_ms",
        median(SoloTotal) - Med([](auto &T) { return T.total(); }), "ms");

  std::map<std::string, double> SoloMedian;
  for (auto &[Body, V] : Solo) {
    SoloMedian[Body] = median(V);
    R.set("runtime.compile_ms." + Body, SoloMedian[Body], "ms");
  }
  return SoloMedian;
}

void probeLaunchFixed(const Config &C, TraceLog &Log, RunResult &R) {
  ScopedSpan Probe(Log, BenchLayer, "probe.launch_fixed", (1u << 30) + 1000);
  auto Machine = gpusim::MachineConfig::ultrabook();
  svm::SharedRegion Region(16 << 20);
  runtime::Runtime RT(Machine, Region);
  gpusim::SimOptions Sim;
  Sim.NumThreads = C.T.SimThreads;
  RT.setSimOptions(Sim);

  constexpr int Items = 16;
  auto *In = Region.allocArray<float>(Items);
  auto *Out = Region.allocArray<float>(Items);
  auto *Body = Region.create<Axpb>();
  for (int I = 0; I < Items; ++I)
    In[I] = float(I);
  *Body = Axpb{In, Out, 2.0f, 1.0f};
  const runtime::KernelSpec Spec = specOf<Axpb>();
  const int Launches = C.Tiny ? 10 : 200;
  for (bool OnCpu : {false, true}) {
    (void)RT.offload(Spec, Items, Body, OnCpu); // JIT warm-up.
    std::vector<double> Us;
    for (int L = 0; L < Launches; ++L) {
      ++R.Attempted;
      auto T0 = Clock::now();
      runtime::LaunchReport Rep = RT.offload(Spec, Items, Body, OnCpu);
      Us.push_back(msSince(T0) * 1e3);
      if (!Rep.Ok || Out[Items - 1] != float(Items - 1) * 2.0f + 1.0f) {
        R.fail("launch probe: offload failed: " + Rep.Diagnostics);
        break;
      }
    }
    R.set(OnCpu ? "runtime.launch_fixed_us.cpu" : "runtime.launch_fixed_us.gpu",
          median(Us), "us");
  }
}

} // namespace perfbench
