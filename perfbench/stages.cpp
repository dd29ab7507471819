#include "stages.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "stats.h"

namespace perfbench {

using mendel::obs::SpanRecord;

namespace {

double end_of(const SpanRecord& span) {
  return span.start + static_cast<double>(span.duration_ns) * 1e-9;
}

const SpanRecord* only(const std::vector<const SpanRecord*>& spans) {
  return spans.size() == 1 ? spans.front() : nullptr;
}

}  // namespace

StageBreakdown stage_breakdown(const mendel::obs::QueryTrace& trace,
                               double turnaround) {
  StageBreakdown out;
  std::vector<const SpanRecord*> submit, reply, route, broadcast, search,
      merge, extend, fetch, fanin, finish;
  for (const SpanRecord& span : trace.spans) {
    const std::string& n = span.name;
    if (n == "client.submit") submit.push_back(&span);
    else if (n == "client.reply") reply.push_back(&span);
    else if (n == "coord.route") route.push_back(&span);
    else if (n == "group.broadcast") broadcast.push_back(&span);
    else if (n == "node.search") search.push_back(&span);
    else if (n == "group.merge") merge.push_back(&span);
    else if (n == "group.extend") extend.push_back(&span);
    else if (n == "node.fetch") fetch.push_back(&span);
    else if (n == "coord.fanin") fanin.push_back(&span);
    else if (n == "coord.finish") finish.push_back(&span);
  }
  if (only(submit) == nullptr || only(reply) == nullptr ||
      only(route) == nullptr || broadcast.empty()) {
    out.error = "trace lacks client.submit/client.reply/coord.route/"
                "group.broadcast";
    return out;
  }

  auto children = [](const std::vector<const SpanRecord*>& spans,
                     std::uint64_t parent) {
    std::vector<const SpanRecord*> kids;
    for (const SpanRecord* s : spans) {
      if (s->parent_span == parent) kids.push_back(s);
    }
    return kids;
  };
  auto search_end_of = [&](const SpanRecord* b) {
    double end = b->start;
    for (const SpanRecord* s : children(search, b->span_id)) {
      end = std::max(end, end_of(*s));
    }
    return end;
  };

  // g*: the group whose extension finished last; with no extension
  // anywhere, the group whose search finished last.
  const SpanRecord* critical = nullptr;
  double critical_key = 0.0;
  bool critical_extended = false;
  for (const SpanRecord* b : broadcast) {
    const auto ext = children(extend, b->span_id);
    const bool extended = !ext.empty();
    const double key = extended ? ext.front()->start : search_end_of(b);
    if (critical == nullptr || (extended && !critical_extended) ||
        (extended == critical_extended && key > critical_key)) {
      critical = b;
      critical_key = key;
      critical_extended = extended;
    }
  }

  std::vector<double> points;
  points.push_back(only(submit)->start);
  points.push_back(critical->start);
  points.push_back(search_end_of(critical));
  std::optional<double> merge_at, fetch_at, extend_at;
  if (const auto m = children(merge, critical->span_id); m.size() == 1) {
    merge_at = m.front()->start;
    for (const SpanRecord* f : children(fetch, m.front()->span_id)) {
      fetch_at = std::max(fetch_at.value_or(f->start), f->start);
    }
  }
  if (const auto e = children(extend, critical->span_id); e.size() == 1) {
    extend_at = e.front()->start;
  }
  points.push_back(merge_at.value_or(points.back()));
  points.push_back(fetch_at.value_or(points.back()));
  points.push_back(extend_at.value_or(points.back()));
  points.push_back(only(fanin) != nullptr ? end_of(*only(fanin))
                                          : points.back());
  points.push_back(only(finish) != nullptr ? only(finish)->start
                                           : points.back());
  points.push_back(only(reply)->start);

  std::vector<double> stages;
  for (std::size_t i = 0; i < kStageNames.size(); ++i) {
    out.seconds[i] = points[i + 1] - points[i];
    stages.push_back(out.seconds[i]);
    if (out.seconds[i] < kNegativeStageSeconds) {
      out.error = std::string("negative stage ") + kStageNames[i];
      return out;
    }
  }
  out.residual = stage_residual(turnaround, stages);
  out.ok = true;
  return out;
}

}  // namespace perfbench
