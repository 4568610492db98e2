//===- Kernels.h - Kernels the benchmark compiles and launches --*- C++ -*-===//
///
/// \file
/// The frame pipeline's four stage kernels (the same Body classes the
/// sched_pipeline bench drives; that bench keeps them private to its main
/// file) and the full list of kernels cold_compile and the compile probe
/// build: the ten workload kernels plus these four.
///
//===----------------------------------------------------------------------===//

#ifndef CONCORD_PERFBENCH_KERNELS_H
#define CONCORD_PERFBENCH_KERNELS_H

#include "runtime/Runtime.h"

#include <cstdint>
#include <vector>

namespace perfbench {

/// out[i] = in[i] * k + b — one link of a frame's dependent chain.
struct Axpb {
  float *In;
  float *Out;
  float K;
  float B;
  static const char *kernelSource();
  static const char *kernelClassName() { return "Axpb"; }
};

/// bins[keys[i]] += 1 — proven accumulate-only; every frame of a round
/// accumulates into one shared bins array.
struct Hist {
  int32_t *Keys;
  int32_t *Bins;
  static const char *kernelSource();
  static const char *kernelClassName() { return "Hist"; }
};

struct ChaseNode {
  ChaseNode *Next;
  float Val;
};

/// out[i] = sum of val over a Len-step walk from head (a pointer chase
/// only the points-to analysis can bound).
struct Chase {
  ChaseNode *Head;
  float *Out;
  int32_t Len;
  static const char *kernelSource();
  static const char *kernelClassName() { return "Chase"; }
};

/// out[2i] = in[i]*k, out[2i+1] = in[i]+k — strided AoS stores, the SOA
/// layout transform's target.
struct Pack {
  float *In;
  float *Out;
  float K;
  static const char *kernelSource();
  static const char *kernelClassName() { return "Pack"; }
};

template <typename BodyT> concord::runtime::KernelSpec specOf() {
  return {BodyT::kernelSource(), BodyT::kernelClassName()};
}

/// The ten workload kernels (Table-1 order, then DegreeHistogram) followed
/// by the pipeline's four.
std::vector<concord::runtime::KernelSpec> allKernelSpecs();

} // namespace perfbench

#endif // CONCORD_PERFBENCH_KERNELS_H
