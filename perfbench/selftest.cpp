#include "selftest.h"

#include <cmath>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "stages.h"
#include "stats.h"

namespace perfbench {
namespace {

class Checker {
 public:
  explicit Checker(std::ostream& log) : log_(log) {}
  void expect(bool ok, const std::string& what) {
    if (!ok) {
      ++failures_;
      log_ << "perfbench selftest FAILED: " << what << "\n";
    }
  }
  void near(double got, double want, const std::string& what) {
    expect(std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want)),
           what + ": got " + std::to_string(got) + ", want " +
               std::to_string(want));
  }
  bool ok() const { return failures_ == 0; }

 private:
  std::ostream& log_;
  int failures_ = 0;
};

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void percentile_rule(Checker& c) {
  const Percentile p200 = percentile(one_to(200), 95.0);
  c.near(p200.value, 190.05, "p95 of 1..200");
  c.expect(p200.samples == 200 && p200.beyond == 10 && p200.resolved(),
           "p95 of 200 samples leaves exactly 10 beyond");
  const Percentile p100 = percentile(one_to(100), 95.0);
  c.expect(p100.beyond == 5 && !p100.resolved(),
           "p95 of 100 samples is unresolved (5 beyond)");
  c.near(percentile({3.0, 1.0, 2.0}, 50.0).value, 2.0, "median of 3");
  c.near(percentile({1.0, 2.0, 3.0, 4.0}, 50.0).value, 2.5,
         "median of 4 interpolates");
  c.expect(percentile({}, 50.0).samples == 0, "empty percentile");
  const Percentile ties = percentile({5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 9},
                                     50.0);
  c.expect(ties.beyond == 1, "ties at the percentile are not beyond it");
}

void registry_delta_ratios(Checker& c) {
  mendel::obs::MetricsRegistry registry;
  auto& hits = registry.counter("hits");
  auto& misses = registry.counter("misses");
  auto& busy = registry.histogram("busy_seconds");
  hits.add(5);
  misses.add(100);
  busy.record_seconds(1.0);
  const auto before = registry.snapshot();
  hits.add(30);
  misses.add(10);
  busy.record_seconds(0.002);
  busy.record_seconds(0.002);
  const auto after = registry.snapshot();
  const double dh = static_cast<double>(counter_delta(before, after, "hits"));
  const double dm =
      static_cast<double>(counter_delta(before, after, "misses"));
  c.near(dh, 30.0, "counter delta");
  c.near(share(dh, dh + dm), 0.75, "hit ratio over the window only");
  c.expect(counter_delta(before, after, "absent") == 0, "absent counter");
  c.near(histogram_sum_seconds_delta(before, after, "busy_seconds"), 0.004,
         "histogram sum delta (exact, not binned)");
  c.near(share(1.0, 0.0), 0.0, "ratio over no events");
}

void handler_sampling_correction(Checker& c) {
  // 160 dispatches of 1 ms, one in 16 timed: the sampled sum is 10 ms.
  double sampled = 0.0;
  for (int tick = 0; tick < 160; ++tick) {
    if (tick % 16 == 0) sampled += 0.001;
  }
  c.near(handler_busy_seconds(sampled), 0.160,
         "x16 restores the unsampled handler time");
}

mendel::obs::SpanRecord span(const char* name, std::uint64_t id,
                             std::uint64_t parent, double start,
                             double duration = 0.0) {
  mendel::obs::SpanRecord s;
  s.name = name;
  s.span_id = id;
  s.parent_span = parent;
  s.start = start;
  s.duration_ns = static_cast<std::uint64_t>(std::llround(duration * 1e9));
  return s;
}

void stage_sum_residual(Checker& c) {
  c.expect(residual_within_bound(stage_residual(6.000001, {1, 2, 3}), 6.0),
           "microsecond residual is within bound");
  c.expect(!residual_within_bound(stage_residual(6.1, {1, 2, 3}), 6.1),
           "100 ms residual is out of bound");

  // Two groups; group B (broadcast 4) extends last and is the critical
  // path. Times in seconds.
  mendel::obs::QueryTrace trace;
  trace.spans = {
      span("client.submit", 1, 0, 0.000),
      span("coord.route", 2, 1, 0.001),
      span("group.broadcast", 3, 2, 0.0015),
      span("node.search", 5, 3, 0.0016, 0.001),
      span("group.broadcast", 4, 2, 0.002),
      span("node.search", 6, 4, 0.003, 0.004),
      span("node.search", 7, 4, 0.003, 0.002),
      span("group.merge", 8, 4, 0.008),
      span("node.fetch", 9, 8, 0.0085),
      span("node.fetch", 10, 8, 0.009),
      span("group.extend", 11, 4, 0.010),
      span("group.merge", 12, 3, 0.003),
      span("group.extend", 13, 3, 0.004),
      span("coord.fanin", 14, 2, 0.001, 0.010),
      span("coord.finish", 15, 2, 0.012),
      span("client.reply", 16, 1, 0.013),
  };
  const StageBreakdown b = stage_breakdown(trace, 0.013);
  c.expect(b.ok, "synthetic trace stages: " + b.error);
  const double want[] = {0.002, 0.005, 0.001, 0.001,
                         0.001, 0.001, 0.001, 0.001};
  for (std::size_t i = 0; i < kStageNames.size(); ++i) {
    c.near(b.seconds[i], want[i], std::string("stage ") + kStageNames[i]);
  }
  c.expect(residual_within_bound(b.residual, 0.013),
           "telescoped stages sum to turnaround");

  mendel::obs::QueryTrace broken = trace;
  broken.spans.back().start = 0.0115;  // reply before coord.finish
  c.expect(!stage_breakdown(broken, 0.0115).ok,
           "a stage running backwards is rejected");
  mendel::obs::QueryTrace partial;
  partial.spans = {trace.spans[0], trace.spans[1]};
  c.expect(!stage_breakdown(partial, 0.013).ok,
           "a trace without the critical path is rejected");
}

}  // namespace

bool run_selftests(std::ostream& log) {
  Checker c(log);
  percentile_rule(c);
  registry_delta_ratios(c);
  handler_sampling_correction(c);
  stage_sum_residual(c);
  return c.ok();
}

}  // namespace perfbench
