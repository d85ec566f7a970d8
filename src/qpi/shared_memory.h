// Model of the CPU/FPGA shared-memory pool of Section 2.1.
//
// The software allocates 4 MB pages through the platform API, transmits
// their physical addresses to the FPGA (populating its page table), and
// addresses the pool through a page-pointer array on the CPU side. Here the
// "physical" backing is one aligned host allocation; FpgaRead/FpgaWrite
// translate every access through the page table (a genuine VA→PA step), so
// the tests exercise the same addressing contract as the hardware. The
// partitioner simulation does not access memory through this pool: it
// models translation by its latency only (fpga/partitioner.h).
#pragma once

#include <cstdint>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/status.h"
#include "qpi/page_table.h"

namespace fpart {

/// \brief Pool of 4 MB pages shared between the host and the simulated AFU.
class SharedMemoryPool {
 public:
  /// Allocate `num_pages` 4 MB pages and populate `page_table` with their
  /// (model) physical page numbers.
  static Result<SharedMemoryPool> Allocate(size_t num_pages,
                                           PageTable* page_table);

  size_t num_pages() const { return num_pages_; }
  uint64_t size_bytes() const { return num_pages_ * kPageSizeBytes; }

  /// Host-side view of the virtual address space (contiguous in the model).
  uint8_t* host_data() { return backing_.data(); }
  const uint8_t* host_data() const { return backing_.data(); }

  /// FPGA-side access: translate through the page table, then touch the
  /// backing store at the physical address.
  Result<const uint8_t*> FpgaRead(uint64_t virtual_addr) const;
  Result<uint8_t*> FpgaWrite(uint64_t virtual_addr);

 private:
  AlignedBuffer backing_;
  const PageTable* page_table_ = nullptr;
  size_t num_pages_ = 0;
  // The model scatters pages in "physical" space with a fixed stride to
  // catch identity-translation bugs: physical page = vpn * kStride + base.
  static constexpr uint64_t kPhysicalBasePage = 3;
  static constexpr uint64_t kPhysicalStride = 2;

  friend class SharedMemoryTestPeer;
};

}  // namespace fpart
