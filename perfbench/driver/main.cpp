//===- main.cpp - Driver of the repository benchmark ----------------------===//
//
// perfbench_driver --workload <figure_matrix|frame_pipeline|cold_compile>
//                  --seed N --seconds S --trace 0|1 --out result.json
//                  [--trace-file trace.json] [--tiny]
//
// Runs one workload and writes its measurements, failure counts and the
// outputs to check against goldens to --out as JSON. With --trace 1 the run
// also records spans (written as Chrome trace-event JSON to --trace-file)
// and reports per-layer metrics instead of end-to-end ones. run.py builds
// this program, checks the goldens and prints the result line.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sched.h>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

unsigned nproc() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return std::max(1, CPU_COUNT(&Set));
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Fixed host-thread plan per workload, sized for at most four threads.
Threads planThreads(const std::string &Workload) {
  Threads T;
  T.Nproc = nproc();
  const unsigned B = std::min(T.Nproc, 4u);
  if (Workload == "figure_matrix") {
    // One simulator thread per cell: with 2 cell jobs x 2 simulator
    // threads a matrix took 1.7x as long as with 4 x 1.
    T.SimThreads = 1;
    T.CellJobs = B;
  } else if (Workload == "frame_pipeline") {
    T.SimThreads = 1;
    T.Submitters = 1;
    T.SchedWorkers = std::max(1u, std::min(2u, B - 1));
  } else {
    T.SimThreads = 1; // Nothing is simulated.
    T.CompileThreads = std::max(1u, std::min(3u, B - 1));
  }
  return T;
}

bool writeResult(const std::string &Path, const Config &C,
                 const RunResult &R) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"workload\":%s,\"seed\":%llu,\"trace\":%s,\n",
               jsonStr(C.Workload).c_str(), (unsigned long long)C.Seed,
               C.Trace ? "true" : "false");
  std::fprintf(F,
               "\"threads\":{\"nproc\":%u,\"cell_jobs\":%u,"
               "\"sim_threads_per_launch\":%u,\"submitters\":%u,"
               "\"sched_workers\":%u,\"compile_threads\":%u,\"busy\":%u},\n",
               C.T.Nproc, C.T.CellJobs, C.T.SimThreads, C.T.Submitters,
               C.T.SchedWorkers, C.T.CompileThreads, C.T.busy());
  std::fprintf(F, "\"attempted\":%llu,\"failed\":%llu,\"errors\":[",
               (unsigned long long)R.Attempted, (unsigned long long)R.Failed);
  for (size_t I = 0; I < R.Errors.size(); ++I)
    std::fprintf(F, "%s%s", I ? "," : "", jsonStr(R.Errors[I]).c_str());
  std::fprintf(F, "],\n\"metrics\":{");
  bool First = true;
  for (auto &[Name, M] : R.Metrics) {
    std::fprintf(F, "%s\n%s:{\"value\":%s,\"unit\":%s}", First ? "" : ",",
                 jsonStr(Name).c_str(), jsonNum(M.Value).c_str(),
                 jsonStr(M.Unit).c_str());
    First = false;
  }
  std::fprintf(F, "},\n\"records\":[");
  for (size_t I = 0; I < R.Records.size(); ++I) {
    const Record &Rec = R.Records[I];
    std::fprintf(F, "%s\n{\"key\":%s,\"count\":%llu,\"fields\":{",
                 I ? "," : "", jsonStr(Rec.Key).c_str(),
                 (unsigned long long)Rec.Count);
    for (size_t J = 0; J < Rec.Fields.size(); ++J)
      std::fprintf(F, "%s%s:%s", J ? "," : "",
                   jsonStr(Rec.Fields[J].first).c_str(),
                   Rec.Fields[J].second.c_str());
    std::fprintf(F, "}}");
  }
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}

int usage(const char *Msg) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench_driver --workload W --seed N "
               "--seconds S --trace 0|1 --out FILE [--trace-file FILE] "
               "[--tiny]\n",
               Msg);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  Config C;
  std::string Out;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--tiny") {
      C.Tiny = true;
      continue;
    }
    if (!(V = Next()))
      return usage(("missing value for " + A).c_str());
    if (A == "--workload")
      C.Workload = V;
    else if (A == "--seed")
      C.Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds")
      C.Seconds = std::atof(V);
    else if (A == "--trace")
      C.Trace = std::strcmp(V, "0") != 0;
    else if (A == "--out")
      Out = V;
    else if (A == "--trace-file")
      C.TracePath = V;
    else
      return usage(("unknown argument " + A).c_str());
  }
  if (Out.empty())
    return usage("--out is required");
  if (C.Seconds <= 0)
    return usage("--seconds must be positive");

  RunResult (*Run)(const Config &, TraceLog &) = nullptr;
  if (C.Workload == "figure_matrix")
    Run = runFigureMatrix;
  else if (C.Workload == "frame_pipeline")
    Run = runFramePipeline;
  else if (C.Workload == "cold_compile")
    Run = runColdCompile;
  else
    return usage(("unknown workload '" + C.Workload + "'").c_str());

  C.T = planThreads(C.Workload);
  if (C.T.busy() > C.T.Nproc) {
    std::fprintf(stderr,
                 "error: %s needs %u busy host threads but nproc is %u\n",
                 C.Workload.c_str(), C.T.busy(), C.T.Nproc);
    return 3;
  }

  TraceLog Log;
  RunResult R = Run(C, Log);
  if (C.Trace && !C.TracePath.empty() && !Log.write(C.TracePath)) {
    std::fprintf(stderr, "error: cannot write %s\n", C.TracePath.c_str());
    return 4;
  }
  if (!writeResult(Out, C, R)) {
    std::fprintf(stderr, "error: cannot write %s\n", Out.c_str());
    return 4;
  }
  return 0;
}
