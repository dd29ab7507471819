#include "src/vptree/block_store.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "src/common/error.h"

#if defined(__unix__) || defined(__linux__) || defined(__APPLE__)
#define MENDEL_BLOCK_STORE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>
#ifndef MAP_NORESERVE
#define MAP_NORESERVE 0
#endif
#endif

namespace mendel::vpt {

#ifdef MENDEL_BLOCK_STORE_MMAP

namespace {

std::size_t page_size() {
  const long ps = ::sysconf(_SC_PAGESIZE);
  return ps > 0 ? static_cast<std::size_t>(ps) : 4096;
}

constexpr std::size_t round_up(std::size_t v, std::size_t align) {
  return (v + align - 1) / align * align;
}

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

// An unlinked temporary file: the bytes vanish with the last descriptor,
// so crashed processes leave nothing behind.
int open_backing_file() {
  const char* dir = std::getenv("TMPDIR");
  std::string path = (dir != nullptr && *dir != '\0') ? dir : "/tmp";
  path += "/mendel-arena-XXXXXX";
  std::vector<char> tmpl(path.begin(), path.end());
  tmpl.push_back('\0');
  const int fd = ::mkstemp(tmpl.data());
  require(fd >= 0, "BlockStore: cannot create spill file in " + path);
  ::unlink(tmpl.data());
  return fd;
}

}  // namespace

bool BlockStore::supported() { return true; }

BlockStore::BlockStore(std::size_t budget_bytes, std::size_t segment_bytes) {
  require(segment_bytes > 0, "BlockStore: zero segment size");
  segment_bytes_ = round_up_pow2(std::max(segment_bytes, page_size()));
  budget_segments_ =
      std::max<std::size_t>(kMinResidentSegments,
                            (budget_bytes + segment_bytes_ - 1) / segment_bytes_);
  fd_ = open_backing_file();

  // One contiguous PROT_NONE reservation keeps data() stable for the life
  // of the store; segments are later mapped into it with MAP_FIXED. Virtual
  // address space is cheap — halve on failure down to a floor.
  std::size_t want = std::size_t{1} << 36;  // 64 GiB
  const std::size_t floor = std::size_t{64} << 20;
  void* base = MAP_FAILED;
  while (true) {
    base = ::mmap(nullptr, want, PROT_NONE,
                  MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (base != MAP_FAILED || want <= floor) break;
    want /= 2;
  }
  if (base == MAP_FAILED) {
    ::close(fd_);
    fd_ = -1;
    throw IoError("BlockStore: cannot reserve spill address space");
  }
  base_ = static_cast<std::uint8_t*>(base);
  reserved_ = want;
}

BlockStore::~BlockStore() {
  if (base_ != nullptr) ::munmap(base_, reserved_);
  if (fd_ >= 0) ::close(fd_);
}

std::size_t BlockStore::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

std::size_t BlockStore::segment_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_.size();
}

std::size_t BlockStore::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_segments_ * segment_bytes_;
}

void BlockStore::ensure_capacity(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t want = round_up(bytes, segment_bytes_);
  if (want <= capacity_) return;
  require(want <= reserved_, "BlockStore: spill reservation exhausted");
  if (::ftruncate(fd_, static_cast<off_t>(want)) != 0) {
    throw IoError("BlockStore: cannot grow spill file to " +
                  std::to_string(want) + " bytes");
  }
  capacity_ = want;
  segments_.resize(capacity_ / segment_bytes_);
}

void BlockStore::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Segment& s : segments_) {
    require(s.pin_count == 0, "BlockStore: reset with pinned segments");
  }
  // Dropping the file to zero length discards every page (resident mappings
  // included); regrowing restores the zero-filled extent, so already-mapped
  // segments simply read zeros afterwards.
  if (capacity_ > 0) {
    if (::ftruncate(fd_, 0) != 0 ||
        ::ftruncate(fd_, static_cast<off_t>(capacity_)) != 0) {
      throw IoError("BlockStore: cannot reset spill file");
    }
  }
}

void BlockStore::fault_in_locked(std::size_t seg) {
  void* addr = base_ + seg * segment_bytes_;
  void* mapped = ::mmap(addr, segment_bytes_, PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_FIXED, fd_,
                        static_cast<off_t>(seg * segment_bytes_));
  if (mapped == MAP_FAILED) {
    throw IoError("BlockStore: cannot map segment " + std::to_string(seg));
  }
  segments_[seg].resident = true;
  ++resident_segments_;
  ++stats_.faults;
}

void BlockStore::evict_locked(std::size_t seg) {
  void* addr = base_ + seg * segment_bytes_;
  // Replacing the MAP_SHARED pages with a PROT_NONE hole writes dirty pages
  // back to the file first, so nothing is lost; touching the hole would
  // fault loudly, which is exactly what the pin protocol exists to prevent.
  void* mapped = ::mmap(addr, segment_bytes_, PROT_NONE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_FIXED,
                        -1, 0);
  if (mapped == MAP_FAILED) {
    throw IoError("BlockStore: cannot evict segment " + std::to_string(seg));
  }
  segments_[seg].resident = false;
  --resident_segments_;
  ++stats_.evictions;
}

void BlockStore::make_room_locked() {
  while (resident_segments_ >= budget_segments_) {
    std::size_t victim = segments_.size();
    std::uint64_t oldest = 0;
    for (std::size_t i = 0; i < segments_.size(); ++i) {
      const Segment& s = segments_[i];
      if (!s.resident || s.pin_count > 0) continue;
      if (victim == segments_.size() || s.last_use < oldest) {
        victim = i;
        oldest = s.last_use;
      }
    }
    if (victim == segments_.size()) return;  // everything pinned: run over
    evict_locked(victim);
  }
}

void BlockStore::ensure_resident_locked(std::size_t seg) {
  require(seg < segments_.size(), "BlockStore: segment out of range");
  Segment& s = segments_[seg];
  if (s.resident) {
    ++stats_.hits;
  } else {
    ++stats_.misses;
    make_room_locked();
    fault_in_locked(seg);
  }
  s.last_use = ++tick_;
}

void BlockStore::pin_segment(std::size_t seg) {
  std::lock_guard<std::mutex> lock(mu_);
  ensure_resident_locked(seg);
  ++segments_[seg].pin_count;
}

void BlockStore::unpin_segment(std::size_t seg) {
  std::lock_guard<std::mutex> lock(mu_);
  unpin_locked(seg);
}

void BlockStore::pin_segments(const std::uint32_t* segs, std::size_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t done = 0;
  try {
    for (; done < count; ++done) {
      ensure_resident_locked(segs[done]);
      ++segments_[segs[done]].pin_count;
    }
  } catch (...) {
    while (done > 0) unpin_locked(segs[--done]);
    throw;
  }
}

void BlockStore::unpin_segments(const std::uint32_t* segs, std::size_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < count; ++i) unpin_locked(segs[i]);
}

std::uint32_t BlockStore::pin_count(std::size_t seg) const {
  std::lock_guard<std::mutex> lock(mu_);
  return seg < segments_.size() ? segments_[seg].pin_count : 0;
}

std::size_t BlockStore::pinned_segments() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::size_t>(
      std::count_if(segments_.begin(), segments_.end(),
                    [](const Segment& s) { return s.pin_count > 0; }));
}

void BlockStore::unpin_locked(std::size_t seg) {
  require(seg < segments_.size() && segments_[seg].pin_count > 0,
          "BlockStore: unbalanced unpin");
  --segments_[seg].pin_count;
  segments_[seg].last_use = ++tick_;
  // A pinned working set may legitimately run over the budget; once pins
  // drop, trim the excess so the resident set honours it again.
  if (segments_[seg].pin_count == 0) trim_locked();
}

void BlockStore::trim_locked() {
  while (resident_segments_ > budget_segments_) {
    std::size_t victim = segments_.size();
    std::uint64_t oldest = 0;
    for (std::size_t i = 0; i < segments_.size(); ++i) {
      const Segment& s = segments_[i];
      if (!s.resident || s.pin_count > 0) continue;
      if (victim == segments_.size() || s.last_use < oldest) {
        victim = i;
        oldest = s.last_use;
      }
    }
    if (victim == segments_.size()) return;  // the excess is still pinned
    evict_locked(victim);
  }
}

void BlockStore::read(std::size_t offset, void* dst, std::size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  require(offset + n <= capacity_, "BlockStore: read past capacity");
  auto* out = static_cast<std::uint8_t*>(dst);
  while (n > 0) {
    const std::size_t seg = offset / segment_bytes_;
    const std::size_t within = offset - seg * segment_bytes_;
    const std::size_t chunk = std::min(n, segment_bytes_ - within);
    ensure_resident_locked(seg);
    std::memcpy(out, base_ + offset, chunk);
    offset += chunk;
    out += chunk;
    n -= chunk;
  }
}

void BlockStore::write(std::size_t offset, const void* src, std::size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  require(offset + n <= capacity_, "BlockStore: write past capacity");
  const auto* in = static_cast<const std::uint8_t*>(src);
  while (n > 0) {
    const std::size_t seg = offset / segment_bytes_;
    const std::size_t within = offset - seg * segment_bytes_;
    const std::size_t chunk = std::min(n, segment_bytes_ - within);
    ensure_resident_locked(seg);
    std::memcpy(base_ + offset, in, chunk);
    offset += chunk;
    in += chunk;
    n -= chunk;
  }
}

BlockStoreStats BlockStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

bool BlockStore::audit(std::string* why) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t resident = 0;
  std::size_t pinned = 0;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    const Segment& s = segments_[i];
    if (s.resident) ++resident;
    if (s.pin_count > 0) {
      ++pinned;
      if (!s.resident) {
        if (why != nullptr) {
          *why += "segment " + std::to_string(i) + " pinned but not resident; ";
        }
        return false;
      }
    }
  }
  if (resident != resident_segments_) {
    if (why != nullptr) {
      *why += "resident account " + std::to_string(resident_segments_) +
              " != mapped " + std::to_string(resident) + "; ";
    }
    return false;
  }
  if (resident > budget_segments_ + pinned) {
    if (why != nullptr) {
      *why += "residency " + std::to_string(resident) + " over budget " +
              std::to_string(budget_segments_) + " without pins; ";
    }
    return false;
  }
  return true;
}

#endif  // MENDEL_BLOCK_STORE_MMAP

PinSet::PinSet(BlockStore* store) : store_(store) {
  if (store_ == nullptr) return;
  while ((std::size_t{1} << shift_) < store_->segment_bytes()) ++shift_;
  cap_ = store_->budget_segments();
}

void PinSet::pin_pending() {
  if (held_.size() + pending_.size() > cap_) {
    // Full: keep only the current group's pins. The group itself never
    // exceeds the cap (add() refuses), so this always makes room.
    std::vector<std::uint32_t> stale;
    std::size_t kept = 0;
    for (const std::uint32_t seg : held_) {
      if (stamp_[seg] == group_) {
        held_[kept++] = seg;
      } else {
        stamp_[seg] = 0;
        stale.push_back(seg);
        held_prefix_ = std::min<std::size_t>(held_prefix_, seg);
      }
    }
    held_.resize(kept);
    store_->unpin_segments(stale.data(), stale.size());
  }
  try {
    store_->pin_segments(pending_.data(), pending_.size());
  } catch (...) {
    for (const std::uint32_t seg : pending_) stamp_[seg] = 0;
    pending_.clear();
    throw;
  }
  held_.insert(held_.end(), pending_.begin(), pending_.end());
  pending_.clear();
  while (held_prefix_ < stamp_.size() && stamp_[held_prefix_] != 0) {
    ++held_prefix_;
  }
}

void PinSet::release() {
  if (store_ == nullptr) return;
  for (const std::uint32_t seg : pending_) stamp_[seg] = 0;
  pending_.clear();
  if (held_.empty()) return;
  for (const std::uint32_t seg : held_) stamp_[seg] = 0;
  held_prefix_ = 0;
  store_->unpin_segments(held_.data(), held_.size());
  held_.clear();
}

#ifndef MENDEL_BLOCK_STORE_MMAP

// Platforms without POSIX mmap never construct a BlockStore — WindowArena
// checks supported() and stays on all-resident heap storage instead.
bool BlockStore::supported() { return false; }

BlockStore::BlockStore(std::size_t, std::size_t) {
  throw IoError("BlockStore: mmap spill storage is unavailable on this platform");
}

BlockStore::~BlockStore() = default;

std::size_t BlockStore::capacity() const { return 0; }
std::size_t BlockStore::segment_count() const { return 0; }
std::size_t BlockStore::resident_bytes() const { return 0; }
void BlockStore::ensure_capacity(std::size_t) {}
void BlockStore::reset() {}
void BlockStore::pin_segment(std::size_t) {}
void BlockStore::unpin_segment(std::size_t) {}
void BlockStore::pin_segments(const std::uint32_t*, std::size_t) {}
void BlockStore::unpin_segments(const std::uint32_t*, std::size_t) {}
std::uint32_t BlockStore::pin_count(std::size_t) const { return 0; }
std::size_t BlockStore::pinned_segments() const { return 0; }
void BlockStore::read(std::size_t, void*, std::size_t) {}
void BlockStore::write(std::size_t, const void*, std::size_t) {}
BlockStoreStats BlockStore::stats() const { return {}; }
bool BlockStore::audit(std::string*) const { return true; }

#endif  // MENDEL_BLOCK_STORE_MMAP

}  // namespace mendel::vpt
