// Parameterized end-to-end recall sweep: across cluster shapes, block
// lengths, and query strides, a moderately mutated probe must recover its
// origin. This is the "does the whole pipeline stay correct under
// configuration changes" property suite.
#include <gtest/gtest.h>

#include "src/mendel/client.h"
#include "src/workload/generator.h"

namespace mendel {
namespace {

// No padding bytes: gtest names each case after the object's bytes
// ("# GetParam() = 32-byte object <...>"), and padding would make the
// listed test ids change from build to build.
struct Shape {
  std::uint32_t groups;
  std::uint32_t per_group;
  std::size_t window;
  std::size_t stride;  // query param k
  std::size_t cutoff_depth;
};
static_assert(sizeof(Shape) == 2 * sizeof(std::uint32_t) +
                                   3 * sizeof(std::size_t),
              "Shape must have no padding");

// gtest needs printable params for test names.
std::string shape_name(const ::testing::TestParamInfo<Shape>& info) {
  const Shape& s = info.param;
  return std::string("g").append(std::to_string(s.groups)) + "x" +
         std::to_string(s.per_group) + "_w" + std::to_string(s.window) +
         "_k" + std::to_string(s.stride) + "_d" +
         std::to_string(s.cutoff_depth);
}

class RecallSweepTest : public ::testing::TestWithParam<Shape> {};

TEST_P(RecallSweepTest, MutatedProbesRecoverTheirOrigins) {
  const Shape& shape = GetParam();

  workload::DatabaseSpec spec;
  spec.families = 5;
  spec.members_per_family = 3;
  spec.background_sequences = 8;
  spec.min_length = 250;
  spec.max_length = 500;
  spec.seed = 1000 + shape.groups * 10 + shape.window;
  const auto store = workload::generate_database(spec);

  core::ClientOptions options;
  options.topology.num_groups = shape.groups;
  options.topology.nodes_per_group = shape.per_group;
  options.indexing.window_length = shape.window;
  options.indexing.sample_size = 512;
  options.prefix_tree.cutoff_depth = shape.cutoff_depth;
  options.cost.measured_cpu = false;
  core::Client client(options);
  client.index(store);

  core::QueryParams params;
  params.k = static_cast<std::uint32_t>(shape.stride);

  Rng rng(spec.seed ^ 0x5eed);
  std::size_t recovered = 0;
  const std::size_t probes = 5;
  for (std::size_t p = 0; p < probes; ++p) {
    const auto origin =
        static_cast<seq::SequenceId>(rng.below(store.size()));
    const auto& donor = store.at(origin);
    if (donor.size() < 180) {
      ++recovered;  // skip (counts as vacuous success to keep probes fixed)
      continue;
    }
    const auto offset = rng.below(donor.size() - 160);
    const auto region = donor.window(offset, 160);
    seq::Sequence raw(store.alphabet(), "probe",
                      {region.begin(), region.end()});
    const auto probe =
        workload::mutate_to_similarity(raw, 0.85, "probe", rng);
    const auto outcome = client.query(probe, params);
    for (const auto& hit : outcome.hits) {
      if (hit.subject_id == origin) {
        ++recovered;
        break;
      }
    }
  }
  // Across configurations the pipeline must stay reliable; allow one miss
  // for the unluckiest mutation placement.
  EXPECT_GE(recovered, probes - 1)
      << "recall collapsed for this configuration";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RecallSweepTest,
    ::testing::Values(
        // groups x per_group, window, stride, cutoff
        Shape{1, 3, 8, 8, 2},    // single group: LSH routing trivial
        Shape{2, 2, 8, 8, 3},    // minimal two-tier
        Shape{4, 3, 8, 8, 4},    // the integration-test default
        Shape{8, 2, 8, 8, 5},    // many small groups
        Shape{4, 3, 8, 4, 4},    // dense stride (k < window)
        Shape{4, 3, 12, 12, 4},  // longer blocks
        Shape{4, 3, 6, 6, 4},    // shorter blocks
        Shape{3, 5, 8, 8, 6}),   // deep cutoff vs few groups
    shape_name);

}  // namespace
}  // namespace mendel
