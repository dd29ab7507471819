// Inverted-index blocks: the basic unit of storage and computation
// (paper §V-A1).
//
// A block is one k-length window of a reference sequence plus the metadata
// needed during query evaluation: the owning sequence id and the window's
// start offset. The paper also stores explicit references to the previous
// and next blocks; since the indexing stride is 1, those are exactly
// (sequence, start-1) and (sequence, start+1), so Mendel represents them
// implicitly. Anchor extension resolves residues beyond a block through the
// distributed sequence repository (each sequence has a home node) rather
// than by chasing per-block links across the ring — see
// src/mendel/storage_node.h.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/codec.h"
#include "src/hash/sha1.h"
#include "src/sequence/sequence.h"
#include "src/vptree/prefix_tree.h"

namespace mendel::core {

struct Block {
  seq::SequenceId sequence = seq::kInvalidSequenceId;
  std::uint32_t start = 0;
  vpt::Window window;

  std::uint32_t end() const {
    return start + static_cast<std::uint32_t>(window.size());
  }

  bool operator==(const Block&) const = default;

  void encode(CodecWriter& writer) const {
    writer.u32(sequence);
    writer.u32(start);
    writer.bytes(std::span<const std::uint8_t>(window.data(), window.size()));
  }

  static Block decode(CodecReader& reader) {
    Block block;
    block.sequence = reader.u32();
    block.start = reader.u32();
    block.window = reader.bytes();
    return block;
  }
};

// Tier-2 placement key: SHA-1 over the block's identity and payload
// (paper §V-A2 — flat hash dispersal within the group). The span overload
// lets a storage node hash arena-resident windows without materializing a
// Block.
inline std::uint64_t block_placement_key(seq::SequenceId sequence,
                                         std::uint32_t start,
                                         seq::CodeSpan window) {
  // The header is the codec's little-endian u32 pair, built on the stack.
  std::array<std::uint8_t, 8> header;
  for (std::size_t i = 0; i < 4; ++i) {
    header[i] = static_cast<std::uint8_t>(sequence >> (8 * i));
    header[4 + i] = static_cast<std::uint8_t>(start >> (8 * i));
  }
  hashing::Sha1 hasher;
  hasher.update(header);
  hasher.update(std::span<const std::uint8_t>(window.data(), window.size()));
  const auto digest = hasher.finish();
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value = (value << 8) | digest[static_cast<std::size_t>(i)];
  }
  return value;
}

inline std::uint64_t block_placement_key(const Block& block) {
  return block_placement_key(block.sequence, block.start, block.window);
}

// Placement key of a reference sequence in the cluster-wide repository
// (home-node selection on the global ring).
inline std::uint64_t sequence_placement_key(seq::SequenceId sequence) {
  return hashing::sha1_prefix64("seq:" + std::to_string(sequence));
}

// Cuts a sequence into its L-k+1 stride-1 blocks (the paper says "L - k
// segments"; the off-by-one is immaterial and we keep the inclusive count).
std::vector<Block> make_blocks(const seq::Sequence& sequence,
                               std::size_t window_length);

}  // namespace mendel::core
