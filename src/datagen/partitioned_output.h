// Storage for a partitioned relation, shared by the CPU and FPGA
// partitioners.
//
// Partitions are stored back to back in one cache-line aligned buffer at
// cache-line granularity. Because the FPGA's write combiner flushes
// partially filled cache lines padded with dummy keys (Section 4.2), a
// partition's storage extent can be larger than its tuple count; consumers
// skip tuples with the dummy key.
//
// A producer fills a PartitionedOutputBuilder (the only type with mutating
// accessors) and seals it into a PartitionedOutput: an immutable handle
// that copies in O(1) and shares its bytes and partition table with every
// copy. The sim-result cache relies on this to answer a hit with the
// memoized run's own buffer instead of a deep copy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/status.h"
#include "datagen/tuple.h"

namespace fpart {

/// \brief Placement and fill metadata of one partition.
struct PartitionInfo {
  /// First cache line of this partition within the output buffer.
  uint64_t base_cl = 0;
  /// Cache lines reserved for this partition.
  uint32_t capacity_cls = 0;
  /// Cache lines actually written.
  uint32_t written_cls = 0;
  /// Real (non-dummy) tuples in this partition.
  uint64_t num_tuples = 0;
};

template <typename T>
class PartitionedOutputBuilder;

/// \brief A sealed partitioned relation: contiguous cache-line-granular
/// partitions plus per-partition metadata, read-only and shared by all
/// copies. The storage lives until the last copy is destroyed.
template <typename T>
class PartitionedOutput {
 public:
  PartitionedOutput() = default;
  // Declared copies suppress the implicit moves, so a moved-from output is
  // a full copy: its cached views below never outlive the storage they
  // point into. Copying costs one reference-count increment.
  PartitionedOutput(const PartitionedOutput&) = default;
  PartitionedOutput& operator=(const PartitionedOutput&) = default;

  size_t num_partitions() const { return num_parts_; }
  uint64_t total_cls() const { return total_cls_; }

  const PartitionInfo& part(size_t p) const { return parts_[p]; }

  const uint8_t* line(uint64_t cl) const {
    return data_ + cl * kCacheLineSize;
  }

  /// Tuples of partition p, *including* any dummy padding; use
  /// PartitionInfo::num_tuples / IsDummy() to skip padding.
  const T* partition_data(size_t p) const {
    return reinterpret_cast<const T*>(line(parts_[p].base_cl));
  }

  /// Stored tuple slots of partition p (== written cache lines × K).
  size_t partition_slots(size_t p) const {
    return static_cast<size_t>(parts_[p].written_cls) *
           TupleTraits<T>::kTuplesPerCacheLine;
  }

  /// Sum of real tuples across all partitions.
  uint64_t total_tuples() const {
    uint64_t n = 0;
    for (size_t p = 0; p < num_parts_; ++p) n += parts_[p].num_tuples;
    return n;
  }

 private:
  friend class PartitionedOutputBuilder<T>;

  struct Storage {
    AlignedBuffer buffer;
    std::vector<PartitionInfo> parts;
  };

  std::shared_ptr<const Storage> storage_;
  // Views into *storage_, cached so the accessors need neither a second
  // indirection nor a null check for a default-constructed output.
  const uint8_t* data_ = nullptr;
  const PartitionInfo* parts_ = nullptr;
  size_t num_parts_ = 0;
  uint64_t total_cls_ = 0;
};

/// \brief The producer side of a PartitionedOutput: allocates the buffer,
/// lets the partitioner write lines and fill the partition table, then
/// seals the result. Move-only.
template <typename T>
class PartitionedOutputBuilder {
 public:
  /// Allocate storage given per-partition capacities (in cache lines).
  static Result<PartitionedOutputBuilder<T>> Allocate(
      const std::vector<uint32_t>& capacity_cls) {
    PartitionedOutputBuilder<T> out;
    out.parts_.resize(capacity_cls.size());
    uint64_t total_cls = 0;
    for (size_t p = 0; p < capacity_cls.size(); ++p) {
      out.parts_[p].base_cl = total_cls;
      out.parts_[p].capacity_cls = capacity_cls[p];
      total_cls += capacity_cls[p];
    }
    FPART_ASSIGN_OR_RETURN(out.buffer_,
                           AlignedBuffer::Allocate(total_cls * kCacheLineSize));
    out.total_cls_ = total_cls;
    return out;
  }

  PartitionInfo& part(size_t p) { return parts_[p]; }
  uint8_t* line(uint64_t cl) { return buffer_.data() + cl * kCacheLineSize; }
  T* partition_data(size_t p) {
    return reinterpret_cast<T*>(line(parts_[p].base_cl));
  }

  /// Hand the buffer and partition table over to a sealed output.
  PartitionedOutput<T> Seal() && {
    auto storage = std::make_shared<typename PartitionedOutput<T>::Storage>();
    storage->buffer = std::move(buffer_);
    storage->parts = std::move(parts_);
    PartitionedOutput<T> out;
    out.data_ = storage->buffer.data();
    out.parts_ = storage->parts.data();
    out.num_parts_ = storage->parts.size();
    out.total_cls_ = total_cls_;
    out.storage_ = std::move(storage);
    return out;
  }

 private:
  AlignedBuffer buffer_;
  std::vector<PartitionInfo> parts_;
  uint64_t total_cls_ = 0;
};

}  // namespace fpart
