// dwred_ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--scale full|toy] [--work-dir <dir>]
//
// Runs one workload and prints, in order: a `row` line (host and workload
// parameters), one `check` line per output check, one `metric` line per
// end-to-end metric that applies to the workload, with `--trace 1` the
// per-layer metrics, the self-time table and the traced end-to-end values,
// and last one JSON line:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// whose metrics are the end-to-end set (untraced) or the per-layer set
// (traced). Every workload reports every metric of its set; a layer a
// workload does not reach reads 0.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "exec/thread_pool.h"
#include "ledger.h"

namespace ledger {
namespace {

struct Def {
  const char* name;
  const char* unit;
};

// The gated end-to-end set: every workload measures each of these.
const Def kEndToEnd[] = {
    {"setup_s", "s"},
    {"query_p50_ms", "ms"},
    {"query_p99_ms", "ms"},
    {"query_per_s", "1/s"},
    {"ops_per_s", "1/s"},
    {"stored_bytes_per_input_fact", "bytes"},
};

const Def kLayers[] = {
    {"net.roundtrip_us", "us"},
    {"net.decode_us", "us"},
    {"net.encode_us", "us"},
    {"net.dispatch_us", "us"},
    {"net.render_us", "us"},
    {"net.transport_us", "us"},
    {"net.bytes_per_request", "bytes"},
    {"spec.parse_us", "us"},
    {"cache.query_hit_ratio", "ratio"},
    {"cache.invalidations", "count"},
    {"cache.evictions", "count"},
    {"subcube.query_hit_us", "us"},
    {"subcube.query_miss_us", "us"},
    {"subcube.subresults_us", "us"},
    {"subcube.combine_us", "us"},
    {"subcube.insert_us", "us"},
    {"subcube.sync_us", "us"},
    {"subcube.rows_migrated_per_sync", "rows"},
    {"io.csv_parse_us", "us"},
    {"io.journal_bytes_per_fact", "bytes"},
    {"io.fsync_s", "s"},
    {"io.journal_overhead_us", "us"},
    {"io.checkpoint_us", "us"},
    {"reduce.pass_us", "us"},
    {"reduce.facts_out_per_in", "ratio"},
    {"scan.segments_pruned_ratio", "ratio"},
    {"scan.rows_skipped_per_query", "rows"},
    {"storage.bytes_per_row", "bytes"},
    {"storage.segments", "count"},
    {"vm.program_hit_ratio", "ratio"},
    {"vm.fallbacks", "count"},
    {"exec.tasks_per_op", "tasks"},
    {"exec.steals", "count"},
    {"runtime.admission_waits", "count"},
    {"trace.unattributed_share", "ratio"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "dwred_ledger: %s\nusage: dwred_ledger --workload "
               "serve_repeat|query_adhoc|ingest_mixed|reduce_durable --seed N "
               "--seconds S --trace 0|1 [--scale full|toy] [--work-dir DIR]\n",
               why);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* endp = nullptr;
    if (flag == "--workload") {
      opt.workload = v;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &endp, 10);
      if (*endp != '\0') Usage("--seed takes a whole number");
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &endp);
      if (*endp != '\0' || !(opt.seconds > 0)) Usage("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
      opt.trace = v == "1";
    } else if (flag == "--scale") {
      if (v != "full" && v != "toy") Usage("--scale takes full or toy");
      opt.toy = v == "toy";
    } else if (flag == "--work-dir") {
      opt.work_dir = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (opt.workload.empty() || !have_seed) Usage("--workload and --seed are required");
  return opt;
}

/// Prints a number with all its digits; a latency limit missed by a failure
/// (+inf) prints as the largest double so the line stays valid JSON.
std::string Num(double v) {
  if (!std::isfinite(v)) v = 1.7976931348623157e308;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double Rate(double n, double s) { return s > 0 ? n / s : 0; }

std::map<std::string, Metric> EndToEnd(const Report& r) {
  std::map<std::string, Metric> m;
  m["setup_s"] = {r.setup_s.Median(), "s"};
  m["query_p50_ms"] = {r.query_ms.Quantile(0.5), "ms"};
  m["query_p99_ms"] = {r.query_ms.Quantile(0.99), "ms"};
  m["query_per_s"] = {Rate(static_cast<double>(r.queries_ok), r.window_s),
                      "1/s"};
  m["ops_per_s"] = {Rate(static_cast<double>(r.ops_ok), r.window_s), "1/s"};
  m["stored_bytes_per_input_fact"] = {r.stored_bytes_per_input_fact, "bytes"};
  return m;
}

void PrintMetric(const char* tag, const std::string& name, double v,
                 const std::string& unit, size_t n) {
  std::printf("%s %s %s %s n=%zu\n", tag, name.c_str(), Num(v).c_str(),
              unit.c_str(), n);
}

/// Every end-to-end metric of the ledger that the workload measured,
/// including those outside the gated set.
void PrintEndToEnd(const char* tag, const Report& r) {
  for (const auto& [name, m] : EndToEnd(r)) {
    PrintMetric(tag, name, m.value, m.unit,
                name == "setup_s" ? r.setup_s.size() : r.query_ms.size());
  }
  if (!r.insert_ms.empty()) {
    PrintMetric(tag, "insert_p50_ms", r.insert_ms.Median(), "ms",
                r.insert_ms.size());
    PrintMetric(tag, "insert_facts_per_s",
                Rate(static_cast<double>(r.window_facts), r.window_s), "1/s",
                r.insert_ms.size());
  }
  if (!r.sync_ms.empty()) {
    PrintMetric(tag, "sync_p50_ms", r.sync_ms.Median(), "ms", r.sync_ms.size());
  }
  if (!r.reduce_ms.empty()) {
    PrintMetric(tag, "reduce_p50_ms", r.reduce_ms.Median(), "ms",
                r.reduce_ms.size());
  }
  if (!r.recover_s.empty()) {
    PrintMetric(tag, "recover_s", r.recover_s.Median(), "s",
                r.recover_s.size());
  }
  PrintMetric(tag, "error_rate",
              r.attempted ? static_cast<double>(r.failed) / r.attempted : 0,
              "ratio", r.attempted);
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) {
  using namespace ledger;
  const Options opt = ParseArgs(argc, argv);
  void (*run)(const Options&, Report*) = nullptr;
  if (opt.workload == "serve_repeat") run = RunServeRepeat;
  if (opt.workload == "query_adhoc") run = RunQueryAdhoc;
  if (opt.workload == "ingest_mixed") run = RunIngestMixed;
  if (opt.workload == "reduce_durable") run = RunReduceDurable;
  if (run == nullptr) Usage(("unknown workload " + opt.workload).c_str());
  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);
  if (ec) Fail("cannot create work dir " + opt.work_dir);

  const int cpus = NumCpus();
  dwred::exec::ThreadPool::ResetGlobal(cpus);
  Report rep;
  rep.spans = SpanLog(opt.trace);
  rep.Row("workload", opt.workload);
  rep.Row("seed", static_cast<double>(opt.seed));
  rep.Row("nproc", cpus);
  rep.Row("exec_pool", dwred::exec::ThreadPool::Global().num_threads());
  rep.Row("seconds", opt.seconds);
  rep.Row("scale", opt.toy ? "toy" : "full");
  run(opt, &rep);
  rep.Row("window_s", rep.window_s);
  rep.Row("attempted", static_cast<double>(rep.attempted));

  std::string row = "row {";
  for (size_t i = 0; i < rep.row.size(); ++i) {
    row += (i ? ", \"" : "\"") + rep.row[i].first + "\": " + rep.row[i].second;
  }
  std::printf("%s}\n", row.c_str());
  bool correct = !rep.checks.empty();
  for (const auto& [name, ok] : rep.checks) {
    std::printf("check %s %s\n", name.c_str(), ok ? "pass" : "FAIL");
    correct = correct && ok;
  }

  std::map<std::string, Metric> out;
  if (!opt.trace) {
    PrintEndToEnd("metric", rep);
    out = EndToEnd(rep);
  } else {
    PrintEndToEnd("traced-metric", rep);
    const LayerTable table = Analyze(rep.spans.spans());
    rep.SpanLayers(table);
    const LayerRow* roundtrip = table.Find("net.roundtrip");
    rep.Layer("net.transport_us", roundtrip ? roundtrip->median_self_us : 0,
              "us");
    for (const LayerRow& r : table.rows) {
      std::printf(
          "self %s calls=%zu median_us=%.3f total_s=%.6f self_s=%.6f\n",
          r.name.c_str(), r.calls, r.median_us, r.total_s, r.self_s);
    }
    std::printf("unattributed %.6f s of %.6f s traced request time (%.4f)\n",
                table.unattributed_s, table.root_s,
                table.root_s > 0 ? table.unattributed_s / table.root_s : 0);
    const std::string path = opt.work_dir + "/trace-" + opt.workload +
                             "-seed" + std::to_string(opt.seed) + ".jsonl";
    if (!WriteTrace(path, rep.spans.spans(), table)) {
      Fail("cannot write trace " + path);
    }
    std::printf("trace %s spans=%zu\n", path.c_str(),
                rep.spans.spans().size());
    for (const Def& d : kLayers) {
      auto it = rep.layers.find(d.name);
      const double v = it == rep.layers.end() ? 0 : it->second.value;
      out[d.name] = {v, d.unit};
      PrintMetric("layer", d.name, v, d.unit, 0);
    }
  }

  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(rep.attempted) +
                     ", \"failed\": " + std::to_string(rep.failed) +
                     ", \"metrics\": {";
  const Def* defs = opt.trace ? kLayers : kEndToEnd;
  const size_t n = opt.trace ? std::size(kLayers) : std::size(kEndToEnd);
  for (size_t i = 0; i < n; ++i) {
    const Metric& m = out.at(defs[i].name);
    json += (i ? ", \"" : "\"") + std::string(defs[i].name) +
            "\": {\"value\": " + Num(m.value) + ", \"unit\": \"" + defs[i].unit +
            "\"}";
  }
  std::printf("%s}}\n", json.c_str());
  return 0;
}
