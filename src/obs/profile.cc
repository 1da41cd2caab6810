#include "obs/profile.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/env.h"
#include "common/strings.h"
#include "obs/logging.h"

namespace dwred::obs {

bool ProfilingEnabled() {
  // A non-empty value disables, mirroring DWRED_CACHE_DISABLED (an *empty*
  // setting counts as enabled, so tests can pin the variable); re-read per
  // call so tests can setenv/unsetenv around individual cases.
  const char* env = std::getenv("DWRED_PROFILE_DISABLED");
  return env == nullptr || env[0] == '\0';
}

uint64_t Fnv1a64(std::string_view s) {
  uint64_t h = 14695981039346656037ull;  // FNV offset basis
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

namespace {

const char* CacheOutcomeName(CacheOutcome c) {
  switch (c) {
    case CacheOutcome::kNotApplicable: return "n/a";
    case CacheOutcome::kDisabled: return "off";
    case CacheOutcome::kMiss: return "miss";
    case CacheOutcome::kHit: return "hit";
    case CacheOutcome::kRefresh: return "refresh";
  }
  return "?";
}

std::string HexFingerprint(uint64_t fp) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

int64_t EnvInt(const char* name, int64_t fallback, int64_t min_value,
               int64_t max_value) {
  // Garbage must not silently misconfigure the slowlog (same contract as
  // DWRED_THREADS): warn and fall back / clamp via the shared helper.
  return EnvInt64(name, fallback, min_value, max_value,
                  EnvRangePolicy::kClamp);
}

std::string StagesJson(const std::vector<StageTime>& stages) {
  std::string out = "[";
  for (size_t i = 0; i < stages.size(); ++i) {
    if (i) out += ",";
    out += "{\"name\":\"" + JsonEscape(stages[i].name) +
           "\",\"wall_us\":" + std::to_string(stages[i].wall_us) + "}";
  }
  return out + "]";
}

}  // namespace

std::string OpProfile::Render() const {
  std::string out = "EXPLAIN " + op + "\n";
  auto line = [&](const char* key, const std::string& value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "  %-14s", key);
    out += buf;
    out += value + "\n";
  };
  if (trace_id != 0) line("trace:", std::to_string(trace_id));
  line("epoch:", std::to_string(epoch));
  line("now day:", std::to_string(now_day));
  line("synchronized:", assume_synchronized ? "assumed" : "not assumed");
  line("parallel:", std::string(parallel ? "yes" : "no") + " (fan-out " +
                        std::to_string(fan_out) + ")");
  std::string cache_desc = CacheOutcomeName(cache);
  if (fingerprint != 0) {
    cache_desc += " (fingerprint " + HexFingerprint(fingerprint) + ")";
  }
  line("cache:", cache_desc);
  line("compiled:", compiled ? "yes (bytecode VM)" : "no (tree interpreter)");
  line("segments:", std::to_string(segments_scanned) + " scanned / " +
                        std::to_string(segments_pruned) + " pruned of " +
                        std::to_string(segments_total));
  line("rows:", std::to_string(rows_scanned) + " scanned, " +
                    std::to_string(rows_skipped) + " skipped");
  line("outcome:", outcome);
  if (budget_max_rows > 0) {
    line("row budget:", std::to_string(budget_rows_charged) + " charged of " +
                            std::to_string(budget_max_rows));
  }
  line("result facts:", std::to_string(result_facts));
  for (const auto& [name, value] : counters) {
    line((name + ":").c_str(), std::to_string(value));
  }
  if (!stages.empty()) {
    out += "  stages:\n";
    for (const StageTime& s : stages) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "    %-16s %8lldus\n", s.name.c_str(),
                    static_cast<long long>(s.wall_us));
      out += buf;
    }
  }
  line("total:", std::to_string(total_us) + "us");
  if (!subcubes.empty()) {
    out += "  subcubes:\n";
    for (const SubcubeProfile& sc : subcubes) {
      char buf[192];
      std::snprintf(buf, sizeof(buf),
                    "    %-12s segments %lld/%lld pruned %lld  rows %lld "
                    "skipped %lld  facts %lld  %lldus\n",
                    sc.name.c_str(),
                    static_cast<long long>(sc.segments_scanned),
                    static_cast<long long>(sc.segments_total),
                    static_cast<long long>(sc.segments_pruned),
                    static_cast<long long>(sc.rows_scanned),
                    static_cast<long long>(sc.rows_skipped),
                    static_cast<long long>(sc.result_facts),
                    static_cast<long long>(sc.wall_us));
      out += buf;
      for (const StageTime& s : sc.stages) {
        std::snprintf(buf, sizeof(buf), "      %-10s %8lldus\n",
                      s.name.c_str(), static_cast<long long>(s.wall_us));
        out += buf;
      }
    }
  }
  return out;
}

std::string OpProfile::ToJson() const {
  std::string out = "{\"op\":\"" + JsonEscape(op) + "\"";
  out += ",\"trace\":" + std::to_string(trace_id);
  out += ",\"epoch\":" + std::to_string(epoch);
  out += ",\"cache\":\"" + std::string(CacheOutcomeName(cache)) + "\"";
  out += ",\"fingerprint\":\"" + HexFingerprint(fingerprint) + "\"";
  out += ",\"now_day\":" + std::to_string(now_day);
  out += ",\"assume_synchronized\":";
  out += assume_synchronized ? "true" : "false";
  out += ",\"parallel\":";
  out += parallel ? "true" : "false";
  out += ",\"compiled\":";
  out += compiled ? "true" : "false";
  out += ",\"fan_out\":" + std::to_string(fan_out);
  out += ",\"segments_total\":" + std::to_string(segments_total);
  out += ",\"segments_scanned\":" + std::to_string(segments_scanned);
  out += ",\"segments_pruned\":" + std::to_string(segments_pruned);
  out += ",\"rows_scanned\":" + std::to_string(rows_scanned);
  out += ",\"rows_skipped\":" + std::to_string(rows_skipped);
  out += ",\"result_facts\":" + std::to_string(result_facts);
  out += ",\"outcome\":\"" + JsonEscape(outcome) + "\"";
  out += ",\"budget_max_rows\":" + std::to_string(budget_max_rows);
  out += ",\"budget_rows_charged\":" + std::to_string(budget_rows_charged);
  for (const auto& [name, value] : counters) {
    out += ",\"" + JsonEscape(name) + "\":" + std::to_string(value);
  }
  out += ",\"stages\":" + StagesJson(stages);
  out += ",\"subcubes\":[";
  for (size_t i = 0; i < subcubes.size(); ++i) {
    const SubcubeProfile& sc = subcubes[i];
    if (i) out += ",";
    out += "{\"name\":\"" + JsonEscape(sc.name) + "\"";
    out += ",\"segments_total\":" + std::to_string(sc.segments_total);
    out += ",\"segments_scanned\":" + std::to_string(sc.segments_scanned);
    out += ",\"segments_pruned\":" + std::to_string(sc.segments_pruned);
    out += ",\"rows_scanned\":" + std::to_string(sc.rows_scanned);
    out += ",\"rows_skipped\":" + std::to_string(sc.rows_skipped);
    out += ",\"result_facts\":" + std::to_string(sc.result_facts);
    out += ",\"wall_us\":" + std::to_string(sc.wall_us);
    out += ",\"stages\":" + StagesJson(sc.stages) + "}";
  }
  out += "],\"total_us\":" + std::to_string(total_us) + "}";
  return out;
}

std::string OpProfile::Summary() const {
  std::string out = "cache=" + std::string(CacheOutcomeName(cache));
  out += " epoch=" + std::to_string(epoch);
  out += " fan_out=" + std::to_string(fan_out);
  out += " segments=" + std::to_string(segments_scanned) + "/" +
         std::to_string(segments_total) + " pruned=" +
         std::to_string(segments_pruned);
  out += " rows_skipped=" + std::to_string(rows_skipped);
  out += " facts=" + std::to_string(result_facts);
  // Append compiled/outcome only when abnormal-or-notable: existing
  // summaries stay stable.
  if (compiled) out += " compiled=1";
  if (!outcome.empty() && outcome != "ok") out += " outcome=" + outcome;
  for (const auto& [name, value] : counters) {
    out += " " + name + "=" + std::to_string(value);
  }
  return out;
}

FlightRecorder& FlightRecorder::Global() {
  // Leaked, same as MetricsRegistry: ops may record during static teardown.
  static FlightRecorder* g = new FlightRecorder();
  return *g;
}

void FlightRecorder::ReloadConfigFromEnv() {
  // Board/ring sizes are clamped to 4096: the recorder is a bounded in-memory
  // debugging aid, and a stray huge value would pin arbitrary memory.
  int64_t topk = EnvInt("DWRED_SLOWLOG_TOPK", 16, 1, 4096);
  int64_t lastn = EnvInt("DWRED_SLOWLOG_LASTN", 64, 1, 4096);
  int64_t min_us = EnvInt("DWRED_SLOWLOG_MIN_US", 1000, 0,
                          std::numeric_limits<int64_t>::max());
  std::lock_guard<std::mutex> lock(mu_);
  topk_ = static_cast<size_t>(topk);
  lastn_ = static_cast<size_t>(lastn);
  min_us_.store(min_us, std::memory_order_relaxed);
}

void FlightRecorder::Record(const OpProfile& profile) {
  if (!WouldRecord(profile.total_us)) return;
  FlightEntry e;
  e.op = profile.op;
  e.trace_id = profile.trace_id;
  e.wall_us = profile.total_us;
  e.detail = profile.Summary();
  std::lock_guard<std::mutex> lock(mu_);
  e.seq = ++seq_;
  ring_.push_back(e);
  while (ring_.size() > lastn_) ring_.pop_front();
  if (board_.size() < topk_ || e.wall_us > board_.back().wall_us) {
    // Insert keeping slowest-first order; ties keep the earlier entry ahead.
    auto pos = std::upper_bound(
        board_.begin(), board_.end(), e.wall_us,
        [](int64_t us, const FlightEntry& b) { return us > b.wall_us; });
    board_.insert(pos, std::move(e));
    if (board_.size() > topk_) board_.pop_back();
  }
}

std::vector<FlightEntry> FlightRecorder::TopK() const {
  std::lock_guard<std::mutex> lock(mu_);
  return board_;
}

std::vector<FlightEntry> FlightRecorder::LastN() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {ring_.begin(), ring_.end()};
}

void FlightRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  board_.clear();
  ring_.clear();
  seq_ = 0;
}

namespace {

void RenderEntry(const FlightEntry& e, std::string* out) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "  #%-5llu %8lldus  ",
                static_cast<unsigned long long>(e.seq),
                static_cast<long long>(e.wall_us));
  *out += buf;
  *out += e.op;
  if (e.trace_id != 0) *out += " trace=" + std::to_string(e.trace_id);
  *out += "  " + e.detail + "\n";
}

}  // namespace

std::string FlightRecorder::Render() const {
  std::vector<FlightEntry> board;
  std::vector<FlightEntry> recent;
  size_t topk, lastn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    board = board_;
    recent.assign(ring_.begin(), ring_.end());
    topk = topk_;
    lastn = lastn_;
  }
  std::string out = "flight recorder: threshold " +
                    std::to_string(threshold_us()) + "us, top " +
                    std::to_string(topk) + " by duration, last " +
                    std::to_string(lastn) + "\n";
  out += "slowest:\n";
  if (board.empty()) out += "  (none at/above threshold)\n";
  for (const FlightEntry& e : board) RenderEntry(e, &out);
  out += "recent:\n";
  if (recent.empty()) out += "  (none at/above threshold)\n";
  // Most recent first: the question at the console is "what just happened".
  for (auto it = recent.rbegin(); it != recent.rend(); ++it) {
    RenderEntry(*it, &out);
  }
  return out;
}

}  // namespace dwred::obs
