#include "util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sys/resource.h>

namespace perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail Percentile(std::vector<double> v, double percentile) {
  Tail t;
  t.percentile = percentile;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  double rank = std::ceil(percentile / 100.0 * static_cast<double>(v.size()));
  size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  index = std::min(index, v.size() - 1);
  t.value = v[index];
  t.beyond = v.size() - 1 - index;
  return t;
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double CalibrationMs() {
  auto start = Clock::now();
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint64_t i = 0; i < 100000000ULL; ++i) {
    h ^= i;
    h *= 0x100000001b3ULL;
  }
  volatile uint64_t sink = h;
  (void)sink;
  return SecondsSince(start) * 1e3;
}

HostGauge& Gauge() {
  static HostGauge gauge;
  return gauge;
}

void HostGauge::Read() {
  auto start = Clock::now();
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint64_t i = 0; i < 3000000ULL; ++i) {
    h ^= i;
    h *= 0x100000001b3ULL;
  }
  // Linear-probing build of 150k keys, 300k probes (half of them hits),
  // then a sort of a 100k-key copy.
  std::fill(table_.begin(), table_.end(), 0);
  const size_t mask = table_.size() - 1;
  auto slot_of = [mask](uint64_t k) {
    return static_cast<size_t>((k * 0x9e3779b97f4a7c15ULL) >> 45) & mask;
  };
  Rand keys(7), again(7);
  for (int i = 0; i < 150000; ++i) {
    uint64_t k = keys.Next() | 1;
    size_t slot = slot_of(k);
    while (table_[slot] != 0) slot = (slot + 1) & mask;
    table_[slot] = k;
  }
  uint64_t found = 0;
  for (int i = 0; i < 300000; ++i) {
    uint64_t k = (i % 2 ? again.Next() : keys.Next()) | 1;
    size_t slot = slot_of(k);
    while (table_[slot] != 0 && table_[slot] != k) slot = (slot + 1) & mask;
    found += table_[slot] == k;
  }
  std::vector<uint64_t> sorted(table_.begin(), table_.begin() + 100000);
  std::sort(sorted.begin(), sorted.end());
  volatile uint64_t sink = h ^ found ^ sorted[sorted.size() / 2];
  (void)sink;
  readings_ms_.push_back(SecondsSince(start) * 1e3);
}

double HostGauge::Scale() {
  if (readings_ms_.empty()) Read();
  size_t n = std::min(kWindow, readings_ms_.size());
  std::vector<double> last(readings_ms_.end() - n, readings_ms_.end());
  scales_.push_back(kReferenceMs / Median(std::move(last)));
  return scales_.back();
}

void HostGauge::Report() const {
  std::printf("gauge reads=%zu median=%.3f ms scale median=%.4f (reference "
              "%.1f ms; times are multiplied by the scale)\n",
              readings_ms_.size(), Median(readings_ms_), Median(scales_),
              kReferenceMs);
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

uint64_t Fnv(std::string_view s, uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t Rand::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void PhaseClock::Mark(const char* name) {
  std::printf("phase %s %.3f s\n", name, SecondsSince(last_));
  last_ = Clock::now();
}

int64_t Tracer::Begin(std::string name, std::string layer) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.layer = std::move(layer);
  span.start_us = NowUs();
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op_;
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int64_t>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int64_t index) {
  if (index < 0) return;
  spans_[index].end_us = NowUs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::Reported(int64_t parent, std::string name, std::string layer,
                      double seconds) {
  if (!enabled_ || parent < 0) return;
  Span span;
  span.name = std::move(name);
  span.layer = std::move(layer);
  span.end_us = spans_[parent].end_us;
  span.start_us = std::max(span.end_us - seconds * 1e6,
                           spans_[parent].start_us);
  span.parent = parent;
  span.op = spans_[parent].op;
  spans_.push_back(std::move(span));
}

std::vector<std::pair<std::string, double>> Tracer::SelfTimeByLayer() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_us[s.parent] += s.end_us - s.start_us;
  }
  std::map<std::string, double> by_layer;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    by_layer[s.layer] += std::max(0.0, s.end_us - s.start_us - child_us[i]);
  }
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [layer, us] : by_layer) out.emplace_back(layer, us / 1e3);
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"op\":%llu,"
                 "\"parent\":%lld,\"id\":%zu}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), s.layer.c_str(),
                 s.start_us, s.end_us - s.start_us,
                 static_cast<unsigned long long>(s.op),
                 static_cast<long long>(s.parent), i);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
