#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

/// \file util.h
/// Timing, summary statistics, host facts and the in-memory span tracer
/// shared by every workload of the end-to-end benchmark.

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of `v` (mean of the two middle values for even sizes); 0 when
/// empty.
double Median(std::vector<double> v);

/// A tail figure: the nearest-rank `percentile` of `samples` values,
/// with `beyond` samples above it.
struct Tail {
  double value = 0;
  double percentile = 0;
  size_t samples = 0;
  size_t beyond = 0;
};
Tail Percentile(std::vector<double> v, double percentile);

/// Geometric mean of strictly positive values; 0 when empty.
double GeoMean(const std::vector<double>& v);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Time of a fixed integer-hash loop, in ms. Ungated diagnostic: it moves
/// only with the host, so it separates host drift from program changes.
double CalibrationMs();

/// Host-speed gauge. The host's speed drifts by tens of percent over
/// minutes (other tenants share its cores and memory), and every time the
/// benchmark measures drifts with it. The gauge times a fixed kernel that
/// uses no library code -- an integer-hash loop, then a hash-table build
/// and probe over 4 MiB and a sort, the kind of work the engine's joins
/// do -- between measured operations, never inside one. A time sample is
/// multiplied by Scale(), so it reads as the time on a host whose kernel
/// takes kReferenceMs.
class HostGauge {
 public:
  /// A fixed reference, near the kernel's time on the host of the
  /// README's numbers (14-21 ms there). Changing it rescales every
  /// figure, so it stays fixed across commits.
  static constexpr double kReferenceMs = 16.0;
  /// Readings the scale is the median of.
  static constexpr size_t kWindow = 5;

  HostGauge() : table_(size_t{1} << 19) {}

  /// Runs the kernel once and records its time.
  void Read();
  /// kReferenceMs over the median of the last kWindow readings (reads
  /// once first when there is no reading yet).
  double Scale();
  /// "gauge ..." diagnostic line: readings, their median and the median
  /// scale applied.
  void Report() const;

 private:
  std::vector<uint64_t> table_;
  std::vector<double> readings_ms_;
  std::vector<double> scales_;
};

/// The process's gauge, shared by every workload.
HostGauge& Gauge();

/// "model name" of the first CPU, or "unknown".
std::string CpuModel();

/// 64-bit FNV-1a over a byte string, continuing from `h`.
uint64_t Fnv(std::string_view s, uint64_t h = 0xcbf29ce484222325ULL);

/// Deterministic generator (SplitMix64) for workload inputs.
class Rand {
 public:
  explicit Rand(uint64_t seed) : state_(seed * 0x9e3779b97f4a7c15ULL + 7) {}
  uint64_t Next();
  uint64_t Uniform(uint64_t bound) { return bound ? Next() % bound : 0; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Prints how long each phase of a run took ("phase <name> <s>"), as a
/// diagnostic of where a run's wall time goes.
class PhaseClock {
 public:
  void Mark(const char* name);

 private:
  Clock::time_point last_ = Clock::now();
};

/// In-memory span recorder. Spans are taken only around the benchmark's
/// own calls into the library's public functions; nothing inside the
/// library is instrumented. Disabled tracers record nothing.
class Tracer {
 public:
  struct Span {
    std::string name;   ///< e.g. "datalog.Evaluator::Evaluate"
    std::string layer;  ///< module: rdf, sparql, core, datalog, server, bench
    double start_us = 0;
    double end_us = 0;
    int64_t parent = -1;  ///< index of the enclosing span, -1 for roots
    uint64_t op = 0;      ///< operation id shared by one request's spans
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  void set_op(uint64_t op) { op_ = op; }

  /// Opens a span under the innermost open one; returns its index (-1
  /// when disabled).
  int64_t Begin(std::string name, std::string layer);
  void End(int64_t index);
  /// Records an already-measured child of the closed span `parent`,
  /// ending where the parent ends (engine time reported inside an HTTP
  /// response).
  void Reported(int64_t parent, std::string name, std::string layer,
                double seconds);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer in ms: each span's duration minus the part its
  /// child spans cover, summed by layer.
  std::vector<std::pair<std::string, double>> SelfTimeByLayer() const;

  /// Writes the spans as Chrome trace-event JSON.
  bool WriteJson(const std::string& path) const;

 private:
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// RAII span; a no-op for a disabled tracer.
class Scope {
 public:
  Scope(Tracer* tracer, std::string name, std::string layer)
      : tracer_(tracer),
        index_(tracer->Begin(std::move(name), std::move(layer))) {}
  ~Scope() { tracer_->End(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int64_t index_;
};

}  // namespace perfbench
