// Process-shared arena allocator inside a shared segment.
//
// Under process-based MPI, heap memory referenced by an HLS variable must
// live in the shared segment (paper §IV.C: "overload dynamic memory
// allocations ... when the call is inside a single directive"). The arena
// is a first-fit free list with coalescing whose entire state — including
// its lock — lives inside the segment, so any attached process can
// allocate and free. Offsets, not pointers, are stored internally; with
// the segment mapped at one common address, offset arithmetic and pointer
// identity agree across processes.
#pragma once

#include <pthread.h>

#include <cstddef>
#include <cstdint>

#include "shm/segment.hpp"

namespace hlsmpc::shm {

class Arena {
 public:
  /// Initialize a fresh arena over [base, base+bytes) — call once, in the
  /// owning process, before other processes attach.
  static Arena* create(void* base, std::size_t bytes);
  /// View an already-initialized arena (attaching process).
  static Arena* attach(void* base);

  void* allocate(std::size_t bytes, std::size_t align = 16);
  void deallocate(void* p);

  std::size_t bytes_used() const;
  /// Number of free-list blocks (coalescing keeps this small).
  int free_blocks() const;

  /// Total overhead the arena needs beyond user payload for n blocks.
  static std::size_t min_bytes();

 private:
  Arena() = default;

  struct Block {
    std::uint64_t size;       // payload bytes
    std::uint64_t next_free;  // offset of next free block, 0 = none
    std::uint64_t prev_size;  // payload size of the preceding block, 0 = first
    std::uint32_t free;
    std::uint32_t magic;
  };

  Block* block_at(std::uint64_t off);
  const Block* block_at(std::uint64_t off) const;
  std::uint64_t offset_of(const Block* b) const;
  void remove_free(Block* b);
  void push_free(Block* b);
  Block* next_in_memory(Block* b);
  Block* prev_in_memory(Block* b);

  // --- all state below lives in the shared segment ---
  pthread_mutex_t mu_;
  std::uint64_t total_;
  std::uint64_t used_;
  std::uint64_t first_free_;
  std::uint32_t magic_;
};

}  // namespace hlsmpc::shm
