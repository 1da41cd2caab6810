#pragma once

// The dwred ledger: one benchmark program, four seeded workloads, end-to-end
// metrics from an untraced run and per-layer metrics from a traced run.
// Everything here calls the library's public API only; layer times come from
// spans the benchmark puts around those calls, never from in-program profiles.

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mdm/mo.h"
#include "spec/action.h"
#include "subcube/manager.h"

namespace ledger {

inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Data sets come from fixed generator seeds (those of bench/bench_common.h
/// and bench/bench_server_qps.cc), so every run measures the same warehouse;
/// --seed drives what varies between runs: request streams, arrival order
/// and the sampled answers that get checked. With data generated per seed,
/// the cost of cold queries and reduce passes moved by 10-25% from seed to
/// seed, more than the changes a run is meant to resolve.
inline constexpr uint64_t kClickSeed = 23;
inline constexpr uint64_t kRetailSeed = 41;

/// Each run builds its inputs this many times and reports the median build
/// time as setup_s; the last build is the one measured. reduce_durable's
/// build takes about 40 ms, so five builds left its median moving by a
/// quarter from one set of runs to the next.
inline constexpr int kSetupRepeats = 9;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool toy = false;           ///< self-test scale: tiny data, same code paths
  std::string work_dir = "."; ///< scratch files (journals, trace output)
};

/// Operation latencies. A failed operation is recorded as +inf so it misses
/// every latency limit.
class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  void AddFailed() { v_.push_back(std::numeric_limits<double>::infinity()); }
  size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  /// Linear interpolation between closest ranks (numpy's default).
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  void Append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }

 private:
  std::vector<double> v_;
};

/// One benchmark-side span. `parent` indexes the same log (-1 = root); the
/// parent is the call whose time this span explains, so a replayed layer call
/// made after the request is still attributed to it.
struct Span {
  const char* name;
  uint64_t request;
  int64_t parent;
  double start, end;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// Records a span and returns its id (-1 when tracing is off).
  int64_t Add(const char* name, uint64_t request, int64_t parent, double start,
              double end);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Per-name self-time table over a span log: self time is a span's duration
/// minus its children's durations; a root's self time is what no layer span
/// explains (the unattributed residual).
struct LayerRow {
  std::string name;
  size_t calls = 0;
  double median_us = 0, total_s = 0, self_s = 0, median_self_us = 0;
};
struct LayerTable {
  std::vector<LayerRow> rows;
  double root_s = 0;            ///< total time of roots that have children
  double unattributed_s = 0;    ///< their summed self time
  const LayerRow* Find(const std::string& name) const;
};
LayerTable Analyze(const std::vector<Span>& spans);
/// Writes spans as JSON lines followed by the self-time table.
bool WriteTrace(const std::string& path, const std::vector<Span>& spans,
                const LayerTable& table);

/// A window's deltas of the process-wide metrics registry.
class RegistryDelta {
 public:
  RegistryDelta();  ///< takes the "before" snapshot
  void Stop();      ///< takes the "after" snapshot
  double operator[](const std::string& name) const;

 private:
  static std::map<std::string, double> Take();
  std::map<std::string, double> before_, after_;
};

struct Metric {
  double value;
  std::string unit;
};

/// Everything one run measured and checked.
struct Report {
  Samples setup_s, query_ms, insert_ms, sync_ms, reduce_ms, recover_s;
  uint64_t attempted = 0, failed = 0;
  uint64_t queries_ok = 0, ops_ok = 0;  ///< successes; queries are ops too
  uint64_t window_facts = 0;  ///< facts ingested inside the timed window
  double window_s = 0;
  double stored_bytes_per_input_fact = 0;
  std::vector<std::pair<std::string, std::string>> row;  ///< key, JSON value
  std::vector<std::pair<std::string, bool>> checks;
  std::map<std::string, Metric> layers;
  SpanLog spans{false};

  void QueryDone() {
    ++queries_ok;
    ++ops_ok;
  }
  void OpDone() { ++ops_ok; }
  void Row(const std::string& key, double v);
  void Row(const std::string& key, const std::string& text);
  /// Records an output check; a failing check prints its detail to stderr.
  void Check(const std::string& name, bool ok, const std::string& detail = "");
  void Layer(const std::string& name, double value, const std::string& unit) {
    layers[name] = {value, unit};
  }
  /// Records the layer metrics derived from a registry window that every
  /// workload shares (cache, scan, vm, exec, runtime).
  void EngineLayers(const RegistryDelta& d, double queries, double ops);
  /// Records storage.bytes_per_row and storage.segments for a subcube
  /// warehouse and returns the bytes it holds.
  double StorageLayers(const dwred::SubcubeManager& mgr);
  /// Median/us layer metrics from the span table.
  void SpanLayers(const LayerTable& t);
};

int NumCpus();

/// SUM totals per measure: conserved by every sync and reduce pass of the
/// benchmark's policies, which have no deletion actions.
std::vector<int64_t> MeasureSums(const dwred::MultidimensionalObject& mo);
std::vector<int64_t> MeasureSums(const dwred::SubcubeManager& mgr);
void AddSums(std::vector<int64_t>* into, const std::vector<int64_t>& add);

/// The three-tier retail policy of bench/bench_common.h, coarsest tier first.
extern const std::vector<const char*> kRetailPolicy;

/// Parses one action per policy line against `mo`.
dwred::ReductionSpecification ParsePolicy(
    const dwred::MultidimensionalObject& mo,
    const std::vector<const char*>& actions);

/// Appends the facts `ids` of `src` to `out`, which has the same dimensions.
void AppendFacts(const dwred::MultidimensionalObject& src,
                 const std::vector<dwred::FactId>& ids,
                 dwred::MultidimensionalObject* out);
/// Copies the facts `ids` of `src` into a new MO.
dwred::MultidimensionalObject CopyFacts(const dwred::MultidimensionalObject& src,
                                        const std::vector<dwred::FactId>& ids);

/// Aborts the run on a setup error: a benchmark that cannot build its inputs
/// has no result to print.
[[noreturn]] void Fail(const std::string& what);
template <typename T>
T Must(dwred::Result<T> r, const char* what) {
  if (!r.ok()) Fail(std::string(what) + ": " + r.status().ToString());
  return r.take();
}
inline void Must(const dwred::Status& st, const char* what) {
  if (!st.ok()) Fail(std::string(what) + ": " + st.ToString());
}

void RunServeRepeat(const Options& opt, Report* rep);
void RunIngestMixed(const Options& opt, Report* rep);
void RunQueryAdhoc(const Options& opt, Report* rep);
void RunReduceDurable(const Options& opt, Report* rep);

}  // namespace ledger
