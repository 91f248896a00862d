#include "core/history.hpp"

#include <cmath>
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
  // A filter naming no metric of the baseline would compare nothing and
  // pass: a misspelt --metric must not read as a clean gate.
  for (const std::string& name : cfg.metrics) {
    bool known = false;
    for (const auto& c : baseline.cells) {
      known = known || c.metric(name) != nullptr ||
              (name == "wake_us_hist" && !c.wake_hist.empty());
    }
    PARATICK_CHECK_MSG(
        known, ("no baseline cell has metric \"" + name + "\"").c_str());
  }

  DiffResult out;

  std::unordered_map<std::string, const SnapshotCell*> cur_by_key;
  for (const auto& c : current.cells) cur_by_key.emplace(c.key(), &c);
  std::unordered_map<std::string, const SnapshotCell*> base_by_key;
  for (const auto& c : baseline.cells) base_by_key.emplace(c.key(), &c);

  for (const auto& c : current.cells) {
    if (base_by_key.count(c.key()) == 0) {
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
      out.findings.push_back(
          {DiffFinding::Kind::kCellRemoved, base_cell.key(), {}, 0, 0, 0, 0});
      continue;
    }
    const SnapshotCell& cur_cell = *it->second;
    ++out.cells_compared;
    const auto metric_removed = [&](const std::string& name) {
      out.findings.push_back(
          {DiffFinding::Kind::kMetricRemoved, base_cell.key(), name, 0, 0, 0, 0});
    };

    for (const auto& bm : base_cell.metrics) {
      if (!cfg.includes(bm.name)) continue;
      const SnapshotMetric* cm = cur_cell.metric(bm.name);
      if (cm == nullptr) {
        metric_removed(bm.name);
        continue;
      }
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
    // histograms. Skipped when the baseline cell has none (it predates
    // histograms or recorded no wakeups); a current cell that lost the
    // baseline's histogram is a finding like any missing metric.
    if (cfg.includes("wake_us_hist") && !base_cell.wake_hist.empty()) {
      if (cur_cell.wake_hist.empty()) {
        metric_removed("wake_us_hist");
      } else if (const double ks =
                     ks_distance(base_cell.wake_hist, cur_cell.wake_hist);
                 ks > kKsThreshold) {
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
      case DiffFinding::Kind::kMetricRemoved:
        out += metrics::format("GRID  - %s :: %s (metric only in baseline)\n",
                               f.cell.c_str(), f.metric.c_str());
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
                               kKsThreshold);
        break;
    }
  }
  out += metrics::format(
      "%zu cells, %zu metrics compared; %zu finding(s) (z > %.1f, |rel| > %g)\n",
      diff.cells_compared, diff.metrics_compared, diff.findings.size(),
      cfg.z_threshold, cfg.rel_min);
  return out;
}

}  // namespace paratick::core
