#include "obs/windowed.h"

#include "obs/metrics.h"

namespace mdw::obs {

WindowedStats::WindowedStats(Cycle warmup_end, Cycle window_cycles,
                             double lat_bucket, std::size_t lat_buckets)
    : warmup_end_(warmup_end),
      window_(window_cycles > 0 ? window_cycles : 1),
      lat_bucket_(lat_bucket), lat_buckets_(lat_buckets),
      total_lat_(0.0, lat_bucket, lat_buckets) {}

void WindowedStats::set_warmup_end(Cycle c) {
  warmup_end_ = c;
  windows_.clear();
  accesses_ = 0;
  total_lat_ = sim::Histogram(0.0, lat_bucket_, lat_buckets_);
}

WindowedStats::Window& WindowedStats::window_at(Cycle c) {
  const auto idx = static_cast<std::size_t>((c - warmup_end_) / window_);
  while (windows_.size() <= idx) {
    windows_.emplace_back(Window(lat_bucket_, lat_buckets_));
  }
  return windows_[idx];
}

void WindowedStats::record_access(Cycle now) {
  if (now < warmup_end_) return;
  ++accesses_;
  ++window_at(now).accesses;
}

void WindowedStats::record_txn(Cycle end, double latency) {
  if (end < warmup_end_) return;
  window_at(end).lat.add(latency);
  total_lat_.add(latency);
}

std::vector<WindowRow> WindowedStats::rows(Cycle end_cycle) const {
  std::vector<WindowRow> out;
  out.reserve(windows_.size());
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    const Window& w = windows_[i];
    WindowRow row;
    row.start = warmup_end_ + static_cast<Cycle>(i) * window_;
    const Cycle natural_end = row.start + window_;
    row.length = (i + 1 == windows_.size() && end_cycle > row.start &&
                  end_cycle < natural_end)
                     ? end_cycle - row.start
                     : window_;
    row.accesses = w.accesses;
    row.inval_txns = w.lat.sampler().count();
    row.lat_mean = w.lat.sampler().mean();
    row.lat_p50 = w.lat.quantile(0.50);
    row.lat_p90 = w.lat.quantile(0.90);
    row.lat_p99 = w.lat.quantile(0.99);
    out.push_back(row);
  }
  return out;
}

void WindowedStats::snapshot_into(MetricsRegistry& reg,
                                  Cycle end_cycle) const {
  reg.counter("stream.steady_accesses").set(accesses_);
  reg.counter("stream.steady_txns").set(steady_txns());
  auto& wh = reg.histogram("stream.window_accesses", 0.0, 64.0, 1024);
  for (const WindowRow& r : rows(end_cycle)) {
    wh.add(static_cast<double>(r.accesses));
  }
  auto& lh = reg.histogram("stream.steady_inval_latency", 0.0, lat_bucket_,
                           lat_buckets_);
  (void)lh.merge_sim(total_lat_);
}

} // namespace mdw::obs
