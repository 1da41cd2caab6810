#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "ledger.h"
#include "obs/metrics.h"
#include "spec/parser.h"

namespace ledger {

using dwred::MultidimensionalObject;

double Samples::Quantile(double q) const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double pos = q * static_cast<double>(s.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, s.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0 || s[lo] == s[hi]) return s[lo];
  return s[lo] + (s[hi] - s[lo]) * frac;
}

int64_t SpanLog::Add(const char* name, uint64_t request, int64_t parent,
                     double start, double end) {
  if (!enabled_) return -1;
  spans_.push_back({name, request, parent, start, end});
  return static_cast<int64_t>(spans_.size()) - 1;
}

const LayerRow* LayerTable::Find(const std::string& name) const {
  for (const LayerRow& r : rows) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

LayerTable Analyze(const std::vector<Span>& spans) {
  std::vector<double> child_s(spans.size(), 0);
  std::vector<bool> has_child(spans.size(), false);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_s[static_cast<size_t>(s.parent)] += s.end - s.start;
      has_child[static_cast<size_t>(s.parent)] = true;
    }
  }
  std::map<std::string, std::pair<Samples, Samples>> by_name;  // dur, self
  LayerTable t;
  std::map<std::string, LayerRow> rows;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double dur = s.end - s.start;
    const double self = std::max(0.0, dur - child_s[i]);
    LayerRow& r = rows[s.name];
    r.name = s.name;
    ++r.calls;
    r.total_s += dur;
    r.self_s += self;
    by_name[s.name].first.Add(dur * 1e6);
    by_name[s.name].second.Add(self * 1e6);
    if (s.parent < 0 && has_child[i]) {
      t.root_s += dur;
      t.unattributed_s += self;
    }
  }
  for (auto& [name, r] : rows) {
    r.median_us = by_name[name].first.Median();
    r.median_self_us = by_name[name].second.Median();
    t.rows.push_back(r);
  }
  return t;
}

bool WriteTrace(const std::string& path, const std::vector<Span>& spans,
                const LayerTable& table) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"request\":%llu,\"parent\":%lld,"
                 "\"start_s\":%.9f,\"end_s\":%.9f}\n",
                 i, s.name, static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.parent), s.start, s.end);
  }
  for (const LayerRow& r : table.rows) {
    std::fprintf(f,
                 "{\"layer\":\"%s\",\"calls\":%zu,\"median_us\":%.3f,"
                 "\"total_s\":%.6f,\"self_s\":%.6f,\"median_self_us\":%.3f}\n",
                 r.name.c_str(), r.calls, r.median_us, r.total_s, r.self_s,
                 r.median_self_us);
  }
  std::fprintf(f, "{\"unattributed_s\":%.6f,\"root_s\":%.6f}\n",
               table.unattributed_s, table.root_s);
  return std::fclose(f) == 0;
}

namespace {

const char* const kCounters[] = {
    "dwred_cache_query_hits",      "dwred_cache_query_misses",
    "dwred_cache_evictions",       "dwred_cache_invalidations",
    "dwred_net_bytes_read",        "dwred_net_bytes_written",
    "dwred_net_frames",            "dwred_scan_segments_pruned",
    "dwred_scan_segments_scanned", "dwred_scan_rows_skipped",
    "dwred_vm_cache_hits",         "dwred_vm_compiles",
    "dwred_vm_fallbacks",          "dwred_exec_tasks",
    "dwred_exec_steals",           "dwred_admission_waits",
    "dwred_journal_bytes_appended",
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

std::map<std::string, double> RegistryDelta::Take() {
  auto& reg = dwred::obs::MetricsRegistry::Global();
  std::map<std::string, double> m;
  for (const char* name : kCounters) {
    m[name] = static_cast<double>(reg.GetCounter(name).Value());
  }
  auto& fsync = reg.GetHistogram("dwred_io_fsync_seconds",
                                 dwred::obs::DefaultLatencyBuckets());
  m["dwred_io_fsync_seconds_sum"] = fsync.Sum();
  m["dwred_io_fsync_seconds_count"] = static_cast<double>(fsync.Count());
  return m;
}

RegistryDelta::RegistryDelta() : before_(Take()) {}

void RegistryDelta::Stop() { after_ = Take(); }

double RegistryDelta::operator[](const std::string& name) const {
  auto a = after_.find(name);
  auto b = before_.find(name);
  if (a == after_.end() || b == before_.end()) {
    Fail("registry metric not snapshotted: " + name);
  }
  return a->second - b->second;
}

void Report::Row(const std::string& key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  row.emplace_back(key, buf);
}

void Report::Row(const std::string& key, const std::string& text) {
  row.emplace_back(key, "\"" + text + "\"");
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  if (!ok) std::fprintf(stderr, "check %s failed: %s\n", name.c_str(),
                        detail.c_str());
  for (auto& [n, passed] : checks) {
    if (n == name) {
      passed = passed && ok;
      return;
    }
  }
  checks.emplace_back(name, ok);
}

void Report::EngineLayers(const RegistryDelta& d, double queries, double ops) {
  const double hits = d["dwred_cache_query_hits"];
  Layer("cache.query_hit_ratio",
        Ratio(hits, hits + d["dwred_cache_query_misses"]), "ratio");
  Layer("cache.invalidations", d["dwred_cache_invalidations"], "count");
  Layer("cache.evictions", d["dwred_cache_evictions"], "count");
  const double pruned = d["dwred_scan_segments_pruned"];
  Layer("scan.segments_pruned_ratio",
        Ratio(pruned, pruned + d["dwred_scan_segments_scanned"]), "ratio");
  Layer("scan.rows_skipped_per_query",
        Ratio(d["dwred_scan_rows_skipped"], queries), "rows");
  const double vm_hits = d["dwred_vm_cache_hits"];
  Layer("vm.program_hit_ratio",
        Ratio(vm_hits, vm_hits + d["dwred_vm_compiles"]), "ratio");
  Layer("vm.fallbacks", d["dwred_vm_fallbacks"], "count");
  Layer("exec.tasks_per_op", Ratio(d["dwred_exec_tasks"], ops), "tasks");
  Layer("exec.steals", d["dwred_exec_steals"], "count");
  Layer("runtime.admission_waits", d["dwred_admission_waits"], "count");
}

double Report::StorageLayers(const dwred::SubcubeManager& mgr) {
  size_t rows = 0, segments = 0;
  for (size_t i = 0; i < mgr.num_subcubes(); ++i) {
    rows += mgr.subcube(i).table.num_rows();
    segments += mgr.subcube(i).table.num_segments();
  }
  const double bytes = static_cast<double>(mgr.TotalBytes());
  Layer("storage.bytes_per_row", Ratio(bytes, static_cast<double>(rows)),
        "bytes");
  Layer("storage.segments", static_cast<double>(segments), "count");
  return bytes;
}

void Report::SpanLayers(const LayerTable& t) {
  static const std::pair<const char*, const char*> kSpanMetrics[] = {
      {"net.roundtrip", "net.roundtrip_us"},
      {"net.decode", "net.decode_us"},
      {"net.encode", "net.encode_us"},
      {"net.dispatch", "net.dispatch_us"},
      {"net.render", "net.render_us"},
      {"spec.parse", "spec.parse_us"},
      {"subcube.query_hit", "subcube.query_hit_us"},
      {"subcube.query_miss", "subcube.query_miss_us"},
      {"subcube.subresults", "subcube.subresults_us"},
      {"subcube.insert", "subcube.insert_us"},
      {"subcube.sync", "subcube.sync_us"},
      {"io.csv_parse", "io.csv_parse_us"},
      {"io.checkpoint", "io.checkpoint_us"},
      {"reduce.pass", "reduce.pass_us"},
  };
  for (const auto& [span, metric] : kSpanMetrics) {
    const LayerRow* r = t.Find(span);
    Layer(metric, r ? r->median_us : 0, "us");
  }
  Layer("trace.unattributed_share", Ratio(t.unattributed_s, t.root_s),
        "ratio");
}

int NumCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

std::vector<int64_t> MeasureSums(const MultidimensionalObject& mo) {
  std::vector<int64_t> sums(mo.num_measures(), 0);
  for (dwred::FactId f = 0; f < mo.num_facts(); ++f) {
    for (size_t m = 0; m < sums.size(); ++m) {
      sums[m] += mo.Measure(f, static_cast<dwred::MeasureId>(m));
    }
  }
  return sums;
}

std::vector<int64_t> MeasureSums(const dwred::SubcubeManager& mgr) {
  std::vector<int64_t> sums(mgr.context().num_measures(), 0);
  for (size_t i = 0; i < mgr.num_subcubes(); ++i) {
    const dwred::FactTable& t = mgr.subcube(i).table;
    t.ForEachRow(0, t.num_rows(),
                 [&](dwred::RowId, const dwred::FactTable::RowRef& row) {
                   for (size_t m = 0; m < sums.size(); ++m) {
                     sums[m] += row.measure(m);
                   }
                 });
  }
  return sums;
}

void AddSums(std::vector<int64_t>* into, const std::vector<int64_t>& add) {
  if (into->empty()) into->assign(add.size(), 0);
  for (size_t i = 0; i < add.size(); ++i) (*into)[i] += add[i];
}

const std::vector<const char*> kRetailPolicy = {
    "a[Time.year, Product.category, Store.region] s["
    "Time.year <= NOW - 36 months]",
    "a[Time.quarter, Product.category, Store.region] s["
    "NOW - 36 months <= Time.quarter AND Time.quarter <= NOW - 12 months]",
    "a[Time.month, Product.brand, Store.city] s["
    "NOW - 12 months <= Time.month <= NOW - 6 months]",
};

dwred::ReductionSpecification ParsePolicy(
    const MultidimensionalObject& mo, const std::vector<const char*>& actions) {
  dwred::ReductionSpecification spec;
  for (size_t i = 0; i < actions.size(); ++i) {
    spec.Add(Must(dwred::ParseAction(mo, actions[i], "tier" + std::to_string(i)),
                  "policy action"));
  }
  return spec;
}

void AppendFacts(const MultidimensionalObject& src,
                 const std::vector<dwred::FactId>& ids,
                 MultidimensionalObject* out) {
  out->ReserveFacts(ids.size());
  std::vector<dwred::ValueId> c(src.num_dimensions());
  std::vector<int64_t> m(src.num_measures());
  for (dwred::FactId f : ids) {
    for (size_t d = 0; d < c.size(); ++d) {
      c[d] = src.Coord(f, static_cast<dwred::DimensionId>(d));
    }
    for (size_t i = 0; i < m.size(); ++i) {
      m[i] = src.Measure(f, static_cast<dwred::MeasureId>(i));
    }
    Must(out->AddBottomFact(c, m), "copy fact");
  }
}

MultidimensionalObject CopyFacts(const MultidimensionalObject& src,
                                 const std::vector<dwred::FactId>& ids) {
  MultidimensionalObject out(
      src.fact_type(), src.dimensions(),
      std::vector<dwred::MeasureType>(src.measure_types()));
  AppendFacts(src, ids, &out);
  return out;
}

void Fail(const std::string& what) {
  std::fprintf(stderr, "ledger: %s\n", what.c_str());
  std::exit(1);
}

}  // namespace ledger
