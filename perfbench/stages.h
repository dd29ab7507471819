// Per-query stage table from the spans the program already records.
//
// Every span start is the wall time its handler began (Context::now() of
// the message that advanced the query), and node.search also carries its
// measured duration. The table walks the query's critical path: the group
// whose extension finished last (g*), then the coordinator.
//
//   route        client.submit        -> group.broadcast(g*)
//   search       group.broadcast(g*)  -> last node.search end in g*
//   merge        last search end      -> group.merge(g*)
//   fetch        group.merge(g*)      -> last node.fetch g* caused
//   group_extend last fetch           -> group.extend(g*)
//   fanin_wait   group.extend(g*)     -> coord.fanin end (last group result)
//   coord_extend coord.fanin end      -> coord.finish
//   reply        coord.finish         -> client.reply
//   residual     QueryOutcome::turnaround minus the rows above
//
// A missing boundary (a group with no merged seeds records no merge,
// fetch or extend span) makes its stage 0 and the next stage absorbs the
// interval. Because handlers stamp their start, compute done inside the
// last handler of a stage is counted in the stage after it.
#pragma once

#include <array>
#include <string>

#include "src/obs/trace.h"

namespace perfbench {

inline constexpr std::array<const char*, 8> kStageNames = {
    "route",      "search",     "merge",        "fetch",
    "group_extend", "fanin_wait", "coord_extend", "reply"};

struct StageBreakdown {
  bool ok = false;
  std::string error;                 // why the trace could not be staged
  std::array<double, kStageNames.size()> seconds{};
  double residual = 0.0;             // turnaround - sum(seconds)
};

StageBreakdown stage_breakdown(const mendel::obs::QueryTrace& trace,
                               double turnaround);

}  // namespace perfbench
