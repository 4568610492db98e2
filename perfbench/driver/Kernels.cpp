//===- Kernels.cpp --------------------------------------------------------===//

#include "Kernels.h"

#include "workloads/Workload.h"

using namespace concord;

namespace perfbench {

const char *Axpb::kernelSource() {
  return R"(
    class Axpb {
    public:
      float* in;
      float* out;
      float k;
      float b;
      void operator()(int i) {
        out[i] = in[i] * k + b;
      }
    };
  )";
}

const char *Hist::kernelSource() {
  return R"(
    class Hist {
    public:
      int* keys;
      int* bins;
      void operator()(int i) {
        int h = keys[i];
        bins[h] = bins[h] + 1;
      }
    };
  )";
}

const char *Chase::kernelSource() {
  return R"(
    class ChaseNode {
    public:
      ChaseNode* next;
      float val;
    };
    class Chase {
    public:
      ChaseNode* head;
      float* out;
      int len;
      void operator()(int i) {
        ChaseNode* n = head;
        float s = 0.0f;
        for (int k = 0; k < len; k++) {
          s = s + n->val;
          n = n->next;
        }
        out[i] = s;
      }
    };
  )";
}

const char *Pack::kernelSource() {
  return R"(
    class Pack {
    public:
      float* in;
      float* out;
      float k;
      void operator()(int i) {
        float v = in[i];
        out[2*i] = v * k;
        out[2*i+1] = v + k;
      }
    };
  )";
}

std::vector<runtime::KernelSpec> allKernelSpecs() {
  std::vector<runtime::KernelSpec> Specs;
  for (auto &W : workloads::allWorkloads())
    Specs.push_back(W->kernelSpec());
  Specs.push_back(workloads::makeDegreeHistogram()->kernelSpec());
  Specs.push_back(specOf<Axpb>());
  Specs.push_back(specOf<Hist>());
  Specs.push_back(specOf<Chase>());
  Specs.push_back(specOf<Pack>());
  return Specs;
}

} // namespace perfbench
