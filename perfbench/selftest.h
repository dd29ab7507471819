// Self-tests of the benchmark's own arithmetic (stats.h, stages.h). Every
// measuring run executes them first and refuses to measure if one fails;
// `mendel_perfbench --selftest` runs them alone.
#pragma once

#include <ostream>

namespace perfbench {

// Returns true when every check passed; failures are described on `log`.
bool run_selftests(std::ostream& log);

}  // namespace perfbench
