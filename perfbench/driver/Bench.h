//===- Bench.h - Shared plumbing of the repository benchmark ----*- C++ -*-===//
///
/// \file
/// Clock, sample statistics, the span recorder behind the traced run, the
/// metric sink and the per-run result every workload fills in. Every span
/// and every timing is taken in the benchmark's own code, around calls
/// into the public entry points of the repository's modules; nothing in
/// src/ is instrumented.
///
//===----------------------------------------------------------------------===//

#ifndef CONCORD_PERFBENCH_BENCH_H
#define CONCORD_PERFBENCH_BENCH_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Microseconds since the process-wide benchmark epoch.
double nowUs();
inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// Linear-interpolated quantile (Q in [0, 1]) of \p V; 0 when empty.
double quantile(std::vector<double> V, double Q);
inline double median(const std::vector<double> &V) { return quantile(V, 0.5); }

/// Host threads each workload runs, fixed before any work starts. Nothing
/// uses the library's "0 = one per hardware thread" defaults.
struct Threads {
  unsigned Nproc = 1;
  unsigned CellJobs = 0;     ///< figure_matrix: cells run concurrently.
  unsigned SimThreads = 1;   ///< Simulator host threads per launch.
  unsigned Submitters = 0;   ///< frame_pipeline: submitting threads.
  unsigned SchedWorkers = 0; ///< frame_pipeline: scheduler workers.
  unsigned CompileThreads = 0; ///< cold_compile: concurrent compilers.
  /// Threads doing work at the same time: launches run on every cell job
  /// or scheduler worker, each with SimThreads simulator threads.
  unsigned busy() const {
    unsigned Launchers = CellJobs + SchedWorkers;
    return Launchers * SimThreads + Submitters + CompileThreads;
  }
};

/// One closed span of the traced run (a Chrome trace-event "X" event).
struct Span {
  std::string Name;
  const char *Layer = "";
  uint32_t Tid = 0;
  double StartUs = 0, EndUs = 0;
  uint64_t Id = 0;      ///< Task, cell or compile id the span belongs to.
  int64_t Parent = -1;  ///< Index of the enclosing span, -1 at top level.
};

/// In-memory span log, written out once the run ends. Disabled (the
/// untraced run) it records nothing.
class TraceLog {
public:
  bool enabled() const { return Enabled; }
  void setEnabled(bool On) { Enabled = On; }
  /// Records a closed span and returns its index (-1 when disabled).
  int64_t add(Span S);
  /// Opens a span starting now; close() ends it. Returns -1 when disabled.
  int64_t open(const char *Layer, std::string Name, uint64_t Id,
               int64_t Parent);
  void close(int64_t Index);
  /// Small dense id of the calling thread.
  static uint32_t threadId();
  std::vector<Span> spans() const;
  /// Chrome trace-event JSON; returns false if the file cannot be written.
  bool write(const std::string &Path) const;

private:
  bool Enabled = false;
  mutable std::mutex Mu; ///< Guards Spans.
  std::vector<Span> Spans;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
public:
  ScopedSpan(TraceLog &Log, const char *Layer, std::string Name, uint64_t Id,
             int64_t Parent = -1)
      : Log(Log), Index(Log.open(Layer, std::move(Name), Id, Parent)) {}
  ~ScopedSpan() { Log.close(Index); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;
  /// Parent index for spans opened inside this one.
  int64_t index() const { return Index; }

private:
  TraceLog &Log;
  int64_t Index;
};

/// Layer of the spans that belong to no layer of the program: containers
/// (a cell, a config, a probe) and the benchmark's own work.
inline constexpr const char *BenchLayer = "bench";

/// Share of [BeginUs, EndUs) covered by no layer span: the union of the
/// intervals of every span outside BenchLayer, whatever thread recorded
/// it, counts as attributed.
double uncoveredShare(const std::vector<Span> &Spans, double BeginUs,
                      double EndUs);

struct Metric {
  double Value = 0;
  std::string Unit;
};

/// One checked output of an operation, compared by run.py against the
/// goldens stored with the benchmark (when the workload has goldens).
struct Record {
  std::string Key;
  /// Flat "name": value pairs, already JSON-encoded values.
  std::vector<std::pair<std::string, std::string>> Fields;
  uint64_t Count = 1; ///< Ops that produced exactly this output.
};

/// Everything a workload run reports back to main().
struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Errors; ///< First few failure messages.
  std::vector<Record> Records;
  std::map<std::string, Metric> Metrics;

  /// Records \p Ops failed ops that share one cause.
  void fail(const std::string &Msg, uint64_t Ops = 1) {
    Failed += Ops;
    if (Errors.size() < 8)
      Errors.push_back(Msg);
  }
  void set(const std::string &Name, double Value, const char *Unit) {
    Metrics[Name] = Metric{Value, Unit};
  }
  /// Adds one op's output, folding repeats of an identical output into a
  /// count so memory stays flat however many ops a run makes.
  void addRecord(Record Rec);
};

/// Settings of one benchmark invocation.
struct Config {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Tiny = false; ///< Self-check size: a few ops of every workload.
  std::string TracePath;
  Threads T;
};

/// JSON string literal for \p S.
std::string jsonStr(const std::string &S);
/// Number with every digit a double carries.
std::string jsonNum(double V);

/// Peak resident set of the process so far, in MiB.
double peakRssMb();

/// Deterministic 64-bit generator for seed-derived inputs.
struct Rng {
  uint64_t State;
  explicit Rng(uint64_t Seed) : State(Seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t next() {
    State ^= State << 13;
    State ^= State >> 7;
    State ^= State << 17;
    return State;
  }
  uint32_t below(uint32_t N) { return uint32_t(next() % N); }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(uint32_t(I))]);
  }
};

// The three workloads (one translation unit each) and the probes their
// traced runs add (Probes.cpp).
RunResult runFigureMatrix(const Config &C, TraceLog &Log);
RunResult runFramePipeline(const Config &C, TraceLog &Log);
RunResult runColdCompile(const Config &C, TraceLog &Log);

/// Solo cold compiles of every kernel through the Runtime and, for the
/// same kernels, direct calls into frontend, transforms (per pass),
/// codegen and analysis; fills the compile-layer per-layer metrics.
/// Returns the median solo Runtime compile time per body class. Run by
/// cold_compile's traced run only.
std::map<std::string, double> probeCompileLayers(const Config &C,
                                                 TraceLog &Log,
                                                 RunResult &R);
/// Warm 16-item offloads on both device models (runtime.launch_fixed_us).
/// Run by frame_pipeline's traced run only.
void probeLaunchFixed(const Config &C, TraceLog &Log, RunResult &R);

} // namespace perfbench

#endif // CONCORD_PERFBENCH_BENCH_H
