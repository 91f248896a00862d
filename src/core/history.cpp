#include "core/history.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <unordered_map>

#include "core/json.hpp"
#include "core/safe_io.hpp"
#include "metrics/report.hpp"
#include "sim/check.hpp"
#include "sim/error.hpp"

namespace paratick::core {

std::string SnapshotCell::key() const {
  return metrics::format("%s|%s|f=%g|v=%d|oc=%g", variant.c_str(), mode.c_str(),
                         tick_freq_hz, vcpus, overcommit);
}

const SnapshotMetric* SnapshotCell::metric(const std::string& name) const {
  for (const auto& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

Snapshot parse_snapshot(const std::string& text) {
  const json::Value root = json::parse(text);
  PARATICK_CHECK_MSG(root.type == json::Value::Type::kObject,
                     "snapshot: top level must be an object");
  Snapshot snap;
  snap.wall_seconds = json::num_field(root, "wall_seconds");
  snap.threads = json::int_field<unsigned>(root, "threads");

  const json::Value* cells = root.find("cells");
  PARATICK_CHECK_MSG(cells != nullptr && cells->type == json::Value::Type::kArray,
                     "snapshot: missing \"cells\" array");
  for (const json::Value& c : cells->array) {
    PARATICK_CHECK_MSG(c.type == json::Value::Type::kObject,
                       "snapshot: cell must be an object");
    SnapshotCell cell;
    cell.variant = json::str_field(c, "variant");
    cell.mode = json::str_field(c, "mode");
    cell.tick_freq_hz = json::num_field(c, "tick_freq_hz");
    cell.vcpus = json::int_field<int>(c, "vcpus");
    cell.overcommit = json::num_field(c, "overcommit");
    cell.replicas = json::int_field<std::uint64_t>(c, "replicas");
    cell.failed = json::int_field<std::uint64_t>(c, "failed");
    for (const auto& [name, v] : c.object) {
      if (v.type != json::Value::Type::kObject) continue;  // metrics only
      if (name == "wake_us_hist") {
        // Not a mean/stddev metric: the merged LogHistogram bucket array.
        if (const json::Value* b = v.find("buckets");
            b != nullptr && b->type == json::Value::Type::kArray) {
          for (const json::Value& n : b->array) {
            cell.wake_hist.push_back(
                json::to_int<std::uint64_t>(n.number, "wake_us_hist"));
          }
        }
        continue;
      }
      SnapshotMetric m;
      m.name = name;
      m.mean = json::num_field(v, "mean");
      m.stddev = json::num_field(v, "stddev");
      // exits/timer_exits/busy_cycles carry no per-metric n: the replica
      // count is their sample count.
      m.n = json::int_field<std::uint64_t>(v, "n", cell.replicas);
      cell.metrics.push_back(std::move(m));
    }
    snap.cells.push_back(std::move(cell));
  }
  return snap;
}

Snapshot load_snapshot(const std::string& path) {
  const std::string text = read_file(path, "snapshot file");
  try {
    return parse_snapshot(text);
  } catch (const sim::SimError& e) {
    PARATICK_CHECK_MSG(false, ("snapshot file " + path + ": " + e.msg()).c_str());
    throw;  // unreachable; CHECK above always throws
  }
}

std::optional<Snapshot> try_load_snapshot(const std::string& path,
                                          std::string* error) {
  try {
    return load_snapshot(path);
  } catch (const sim::SimError& e) {
    if (error != nullptr) *error = e.msg();  // names the path already
    return std::nullopt;
  }
}

namespace {

/// Two-sample Kolmogorov–Smirnov distance over LogHistogram bucket counts:
/// max CDF gap over bucket-boundary prefixes, with the shorter bucket array
/// implicitly zero-padded (buckets are a fixed log grid, so index i means
/// the same latency range in both snapshots).
double ks_distance(const std::vector<std::uint64_t>& a,
                   const std::vector<std::uint64_t>& b) {
  double ta = 0.0, tb = 0.0;
  for (const std::uint64_t v : a) ta += static_cast<double>(v);
  for (const std::uint64_t v : b) tb += static_cast<double>(v);
  if (ta == 0.0 || tb == 0.0) return 0.0;
  const std::size_t n = std::max(a.size(), b.size());
  double ca = 0.0, cb = 0.0, ks = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i < a.size()) ca += static_cast<double>(a[i]);
    if (i < b.size()) cb += static_cast<double>(b[i]);
    ks = std::max(ks, std::abs(ca / ta - cb / tb));
  }
  return ks;
}

}  // namespace

DiffResult diff_snapshots(const Snapshot& baseline, const Snapshot& current,
                          const DiffConfig& cfg) {
  DiffResult out;

  std::unordered_map<std::string, const SnapshotCell*> cur_by_key;
  for (const auto& c : current.cells) cur_by_key.emplace(c.key(), &c);
  std::unordered_map<std::string, const SnapshotCell*> base_by_key;
  for (const auto& c : baseline.cells) base_by_key.emplace(c.key(), &c);

  for (const auto& c : current.cells) {
    if (cfg.grid_must_match && base_by_key.count(c.key()) == 0) {
      out.findings.push_back({DiffFinding::Kind::kCellAdded, c.key(), {}, 0, 0, 0, 0});
    }
    if (c.failed > 0) {
      DiffFinding f;
      f.kind = DiffFinding::Kind::kDegraded;
      f.cell = c.key();
      f.failed = c.failed;
      f.replicas = c.failed + c.replicas;
      out.findings.push_back(f);
    }
  }

  for (const auto& base_cell : baseline.cells) {
    const auto it = cur_by_key.find(base_cell.key());
    if (it == cur_by_key.end()) {
      if (cfg.grid_must_match) {
        out.findings.push_back(
            {DiffFinding::Kind::kCellRemoved, base_cell.key(), {}, 0, 0, 0, 0});
      }
      continue;
    }
    const SnapshotCell& cur_cell = *it->second;
    ++out.cells_compared;

    for (const auto& bm : base_cell.metrics) {
      if (!cfg.includes(bm.name)) continue;
      const SnapshotMetric* cm = cur_cell.metric(bm.name);
      if (cm == nullptr) continue;           // metric set drift: ignore
      if (bm.n == 0 && cm->n == 0) continue;  // no samples on either side
      ++out.metrics_compared;

      DiffFinding f;
      f.kind = DiffFinding::Kind::kShift;
      f.cell = base_cell.key();
      f.metric = bm.name;
      f.baseline_mean = bm.mean;
      f.current_mean = cm->mean;

      if ((bm.n == 0) != (cm->n == 0)) {
        // A metric gained or lost all its samples (e.g. the workload
        // stopped completing): always a finding.
        f.z = std::numeric_limits<double>::infinity();
        f.rel_delta = 0.0;
        out.findings.push_back(f);
        continue;
      }

      const double delta = cm->mean - bm.mean;
      const double denom = std::max(std::abs(bm.mean), 1e-12);
      f.rel_delta = delta / denom;
      if (std::abs(f.rel_delta) < cfg.rel_min) continue;

      // Welch standard error of the difference of means.
      const double se =
          std::sqrt(bm.stddev * bm.stddev / static_cast<double>(bm.n) +
                    cm->stddev * cm->stddev / static_cast<double>(cm->n));
      if (se == 0.0) {
        // Deterministic cells (single replica or zero variance): any
        // above-floor shift is a regression by definition.
        f.z = std::numeric_limits<double>::infinity();
        out.findings.push_back(f);
        continue;
      }
      f.z = std::abs(delta) / se;
      if (f.z > cfg.z_threshold) out.findings.push_back(f);
    }

    // Distribution gate: KS distance between the cells' wake-latency
    // histograms. Skipped when either snapshot predates histograms or the
    // cell recorded no wakeups.
    if (cfg.includes("wake_us_hist") && !base_cell.wake_hist.empty() &&
        !cur_cell.wake_hist.empty()) {
      const double ks = ks_distance(base_cell.wake_hist, cur_cell.wake_hist);
      if (ks > cfg.ks_threshold) {
        DiffFinding f;
        f.kind = DiffFinding::Kind::kDistribution;
        f.cell = base_cell.key();
        f.metric = "wake_us_hist";
        f.z = ks;
        out.findings.push_back(f);
      }
    }
  }
  return out;
}

std::string describe(const DiffResult& diff, const DiffConfig& cfg) {
  std::string out;
  for (const auto& f : diff.findings) {
    switch (f.kind) {
      case DiffFinding::Kind::kCellAdded:
        out += metrics::format("GRID  + %s (cell only in current)\n", f.cell.c_str());
        break;
      case DiffFinding::Kind::kCellRemoved:
        out += metrics::format("GRID  - %s (cell only in baseline)\n", f.cell.c_str());
        break;
      case DiffFinding::Kind::kShift:
        out += metrics::format(
            "SHIFT %s :: %s  %.4g -> %.4g  (%+.2f%%, z=%s)\n", f.cell.c_str(),
            f.metric.c_str(), f.baseline_mean, f.current_mean, f.rel_delta * 100.0,
            std::isinf(f.z) ? "inf" : metrics::format("%.1f", f.z).c_str());
        break;
      case DiffFinding::Kind::kDegraded:
        out += metrics::format(
            "DEGRADED %s: %llu of %llu replicas failed\n", f.cell.c_str(),
            static_cast<unsigned long long>(f.failed),
            static_cast<unsigned long long>(f.replicas));
        break;
      case DiffFinding::Kind::kDistribution:
        out += metrics::format("DIST  %s :: %s  KS=%.3f (threshold %.3f)\n",
                               f.cell.c_str(), f.metric.c_str(), f.z,
                               cfg.ks_threshold);
        break;
    }
  }
  out += metrics::format(
      "%zu cells, %zu metrics compared; %zu finding(s) (z > %.1f, |rel| > %g)\n",
      diff.cells_compared, diff.metrics_compared, diff.findings.size(),
      cfg.z_threshold, cfg.rel_min);
  return out;
}

std::string history_tag_now() {
  std::string tag;
  if (const char* env = std::getenv("PARATICK_HISTORY_TAG"); env != nullptr && *env) {
    tag = env;
  } else if (const char* sha = std::getenv("GITHUB_SHA"); sha != nullptr && *sha) {
    tag = std::string(sha).substr(0, 12);
  } else if (std::FILE* p = ::popen("git rev-parse --short=12 HEAD 2>/dev/null", "r")) {
    char buf[64] = {};
    if (std::fgets(buf, sizeof buf, p) != nullptr) tag = buf;
    ::pclose(p);
  }
  while (!tag.empty() && (tag.back() == '\n' || tag.back() == '\r')) tag.pop_back();
  if (tag.empty()) tag = "worktree";
  for (char& c : tag) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
                    c == '_' || c == '.';
    if (!ok) c = '_';
  }
  return tag;
}

std::string write_history_snapshot(const SweepResult& result, const std::string& dir,
                                   const std::string& bench, const std::string& tag) {
  namespace fs = std::filesystem;
  const fs::path subdir = fs::path(dir) / bench;
  std::error_code ec;
  fs::create_directories(subdir, ec);
  PARATICK_CHECK_MSG(!ec, "cannot create history directory");
  const fs::path path = subdir / (tag + ".json");
  // Atomic write: a run killed mid-snapshot must not strand a truncated
  // history file for bench_diff (or a continuous-benchmarking fleet) to
  // trip over.
  write_file_atomic(path.string(), result.to_json());
  return path.string();
}

}  // namespace paratick::core
