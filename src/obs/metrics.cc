#include "obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>

namespace dtdevolve::obs {

namespace {

size_t ThreadStripe(size_t stripes) {
  // One hash per thread; cached so the hot increment path is a single
  // relaxed fetch_add on a thread-stable cell.
  static thread_local const size_t stripe =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return stripe % stripes;
}

void AtomicAddDouble(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

/// Integral values (byte gauges, LSNs) print exactly; `%g` alone would
/// round anything past six digits ("3.35544e+07").
std::string FormatDouble(double value) {
  char buffer[64];
  const bool integral = std::nearbyint(value) == value &&
                        std::fabs(value) < 9007199254740992.0;  // 2^53
  std::snprintf(buffer, sizeof(buffer), integral ? "%.0f" : "%g", value);
  return buffer;
}

std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// `{k1="v1",k2="v2"}`, or the empty string for an unlabeled series.
/// `extra` (used for histogram `le`) is appended last.
std::string RenderLabels(const Labels& labels, const std::string& extra = "") {
  if (labels.empty() && extra.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += key + "=\"" + EscapeLabelValue(value) + "\"";
  }
  if (!extra.empty()) {
    if (!first) out += ',';
    out += extra;
  }
  out += '}';
  return out;
}

}  // namespace

void Counter::Increment(uint64_t delta) {
  cells_[ThreadStripe(kStripes)].value.fetch_add(delta,
                                                 std::memory_order_relaxed);
}

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const Cell& cell : cells_) {
    total += cell.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Gauge::Set(double value) {
  value_.store(value, std::memory_order_relaxed);
}

void Gauge::Add(double delta) { AtomicAddDouble(value_, delta); }

double Gauge::Value() const { return value_.load(std::memory_order_relaxed); }

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::Observe(double value) {
  // Buckets are inclusive on the upper edge: the first bound >= value.
  const size_t bucket =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin();
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(sum_, value);
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> counts(bounds_.size() + 1);
  for (size_t i = 0; i < counts.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

uint64_t Histogram::Count() const {
  return count_.load(std::memory_order_relaxed);
}

double Histogram::Sum() const { return sum_.load(std::memory_order_relaxed); }

std::vector<double> Histogram::DefaultLatencyBounds() {
  return {0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
          0.025,  0.05,    0.1,    0.25,  0.5,    1.0,   2.5,
          5.0,    10.0};
}

Registry::Series& Registry::GetSeries(std::string_view name,
                                      std::string_view help, Type type,
                                      Labels labels,
                                      std::vector<double> bounds) {
  std::sort(labels.begin(), labels.end());
  std::string key(name);
  key += RenderLabels(labels);

  Shard& shard = shards_[std::hash<std::string>{}(key) % kShards];
  std::lock_guard<std::mutex> lock(shard.mutex);
  for (auto& [existing_key, series] : shard.series) {
    if (existing_key != key) continue;
    assert(series->type == type && "metric re-registered with another type");
    if (series->type == type) return *series;
    break;  // type clash in a release build: fall through to a fresh series
  }
  auto series = std::make_unique<Series>();
  series->name = std::string(name);
  series->help = std::string(help);
  series->labels = std::move(labels);
  series->type = type;
  switch (type) {
    case Type::kCounter:
      series->counter = std::make_unique<Counter>();
      break;
    case Type::kGauge:
      series->gauge = std::make_unique<Gauge>();
      break;
    case Type::kHistogram:
      series->histogram = std::make_unique<Histogram>(std::move(bounds));
      break;
  }
  shard.series.emplace_back(std::move(key), std::move(series));
  return *shard.series.back().second;
}

Counter& Registry::GetCounter(std::string_view name, std::string_view help,
                              Labels labels) {
  return *GetSeries(name, help, Type::kCounter, std::move(labels), {})
              .counter;
}

Gauge& Registry::GetGauge(std::string_view name, std::string_view help,
                          Labels labels) {
  return *GetSeries(name, help, Type::kGauge, std::move(labels), {}).gauge;
}

Histogram& Registry::GetHistogram(std::string_view name, std::string_view help,
                                  std::vector<double> bounds, Labels labels) {
  return *GetSeries(name, help, Type::kHistogram, std::move(labels),
                    std::move(bounds))
              .histogram;
}

std::string Registry::RenderPrometheus() const {
  // Snapshot pointers under the shard locks, then render lock-free;
  // series are never removed so the pointers stay valid.
  std::vector<const Series*> all;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [key, series] : shard.series) all.push_back(series.get());
  }
  std::sort(all.begin(), all.end(), [](const Series* a, const Series* b) {
    if (a->name != b->name) return a->name < b->name;
    return a->labels < b->labels;
  });

  std::string out;
  const std::string* last_family = nullptr;
  for (const Series* series : all) {
    if (last_family == nullptr || *last_family != series->name) {
      out += "# HELP " + series->name + " " + series->help + "\n";
      out += "# TYPE " + series->name + " ";
      switch (series->type) {
        case Type::kCounter:
          out += "counter\n";
          break;
        case Type::kGauge:
          out += "gauge\n";
          break;
        case Type::kHistogram:
          out += "histogram\n";
          break;
      }
      last_family = &series->name;
    }
    const std::string labels = RenderLabels(series->labels);
    switch (series->type) {
      case Type::kCounter:
        out += series->name + labels + " " +
               std::to_string(series->counter->Value()) + "\n";
        break;
      case Type::kGauge:
        out += series->name + labels + " " +
               FormatDouble(series->gauge->Value()) + "\n";
        break;
      case Type::kHistogram: {
        const Histogram& hist = *series->histogram;
        const std::vector<uint64_t> counts = hist.BucketCounts();
        uint64_t cumulative = 0;
        for (size_t i = 0; i < counts.size(); ++i) {
          cumulative += counts[i];
          const std::string le =
              i < hist.bounds().size()
                  ? "le=\"" + FormatDouble(hist.bounds()[i]) + "\""
                  : std::string("le=\"+Inf\"");
          out += series->name + "_bucket" + RenderLabels(series->labels, le) +
                 " " + std::to_string(cumulative) + "\n";
        }
        out += series->name + "_sum" + labels + " " +
               FormatDouble(hist.Sum()) + "\n";
        out += series->name + "_count" + labels + " " +
               std::to_string(hist.Count()) + "\n";
        break;
      }
    }
  }
  return out;
}

}  // namespace dtdevolve::obs
