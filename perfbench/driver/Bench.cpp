//===- Bench.cpp - Shared plumbing of the repository benchmark ------------===//

#include "Bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string_view>
#include <sys/resource.h>

namespace perfbench {

static const Clock::time_point Epoch = Clock::now();

double nowUs() {
  return std::chrono::duration<double, std::micro>(Clock::now() - Epoch)
      .count();
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = size_t(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

int64_t TraceLog::add(Span S) {
  if (!Enabled)
    return -1;
  std::lock_guard<std::mutex> Lock(Mu);
  Spans.push_back(std::move(S));
  return int64_t(Spans.size() - 1);
}

int64_t TraceLog::open(const char *Layer, std::string Name, uint64_t Id,
                       int64_t Parent) {
  if (!Enabled)
    return -1;
  double Now = nowUs();
  return add(Span{std::move(Name), Layer, threadId(), Now, Now, Id, Parent});
}

void TraceLog::close(int64_t Index) {
  if (Index < 0)
    return;
  double Now = nowUs();
  std::lock_guard<std::mutex> Lock(Mu);
  Spans[size_t(Index)].EndUs = Now;
}

uint32_t TraceLog::threadId() {
  static std::atomic<uint32_t> Next{1};
  thread_local uint32_t Id = Next.fetch_add(1);
  return Id;
}

std::vector<Span> TraceLog::spans() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Spans;
}

bool TraceLog::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::lock_guard<std::mutex> Lock(Mu);
  std::fprintf(F, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "%s{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"id\":%llu,\"parent\":%lld}}\n",
                 I ? "," : "", jsonStr(S.Name).c_str(),
                 jsonStr(S.Layer).c_str(), S.Tid, S.StartUs,
                 std::max(0.0, S.EndUs - S.StartUs), I,
                 (unsigned long long)S.Id, (long long)S.Parent);
  }
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}

double uncoveredShare(const std::vector<Span> &Spans, double BeginUs,
                      double EndUs) {
  if (EndUs <= BeginUs)
    return 0;
  std::vector<std::pair<double, double>> Iv;
  for (const Span &S : Spans) {
    if (std::string_view(S.Layer) == BenchLayer)
      continue;
    double B = std::max(S.StartUs, BeginUs), E = std::min(S.EndUs, EndUs);
    if (E > B)
      Iv.emplace_back(B, E);
  }
  std::sort(Iv.begin(), Iv.end());
  double Covered = 0, CurB = 0, CurE = -1;
  for (auto &[B, E] : Iv) {
    if (B > CurE) {
      if (CurE > CurB)
        Covered += CurE - CurB;
      CurB = B;
      CurE = E;
    } else {
      CurE = std::max(CurE, E);
    }
  }
  if (CurE > CurB)
    Covered += CurE - CurB;
  return 1.0 - Covered / (EndUs - BeginUs);
}

void RunResult::addRecord(Record Rec) {
  for (Record &Old : Records)
    if (Old.Key == Rec.Key && Old.Fields == Rec.Fields) {
      ++Old.Count;
      return;
    }
  Records.push_back(std::move(Rec));
}

std::string jsonStr(const std::string &S) {
  std::string Out = "\"";
  for (char Ch : S) {
    switch (Ch) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(Ch) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", Ch);
        Out += Buf;
      } else {
        Out += Ch;
      }
    }
  }
  return Out + "\"";
}

std::string jsonNum(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

double peakRssMb() {
  struct rusage RU {};
  getrusage(RUSAGE_SELF, &RU);
  return double(RU.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux.
}

} // namespace perfbench
