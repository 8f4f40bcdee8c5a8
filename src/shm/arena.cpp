#include "shm/arena.hpp"

#include <cstring>
#include <new>

#include "fault/injector.hpp"

namespace hlsmpc::shm {

namespace {
constexpr std::uint32_t kArenaMagic = 0xA11CA7EDu;
constexpr std::uint32_t kBlockMagic = 0xB10CB10Cu;
constexpr std::uint64_t kSlackMagic = 0x51ACC0FFEE51ACC0ull;
constexpr std::size_t kHeader = 128;  // Arena header region, padded

std::size_t align_up(std::size_t v, std::size_t a) {
  return (v + a - 1) & ~(a - 1);
}
}  // namespace

std::size_t Arena::min_bytes() { return kHeader + sizeof(Block) + 64; }

Arena* Arena::create(void* base, std::size_t bytes) {
  static_assert(sizeof(Arena) <= kHeader, "Arena header region too small");
  if (bytes < min_bytes()) {
    throw ShmError("Arena: segment too small", ErrorCode::invalid_argument);
  }
  auto* a = new (base) Arena();
  pthread_mutexattr_t attr;
  pthread_mutexattr_init(&attr);
  pthread_mutexattr_setpshared(&attr, PTHREAD_PROCESS_SHARED);
  pthread_mutex_init(&a->mu_, &attr);
  pthread_mutexattr_destroy(&attr);
  a->total_ = bytes - kHeader;
  a->used_ = 0;
  a->magic_ = kArenaMagic;

  Block* first = a->block_at(kHeader);
  first->size = a->total_ - sizeof(Block);
  first->next_free = 0;
  first->prev_size = 0;
  first->free = 1;
  first->magic = kBlockMagic;
  a->first_free_ = kHeader;
  return a;
}

Arena* Arena::attach(void* base) {
  auto* a = static_cast<Arena*>(base);
  if (a->magic_ != kArenaMagic) {
    throw ShmError("Arena::attach: no arena at this address",
                   ErrorCode::corruption);
  }
  return a;
}

Arena::Block* Arena::block_at(std::uint64_t off) {
  return reinterpret_cast<Block*>(reinterpret_cast<std::byte*>(this) + off);
}

const Arena::Block* Arena::block_at(std::uint64_t off) const {
  return reinterpret_cast<const Block*>(
      reinterpret_cast<const std::byte*>(this) + off);
}

std::uint64_t Arena::offset_of(const Block* b) const {
  return static_cast<std::uint64_t>(reinterpret_cast<const std::byte*>(b) -
                                    reinterpret_cast<const std::byte*>(this));
}

void Arena::remove_free(Block* b) {
  std::uint64_t* link = &first_free_;
  while (*link != 0) {
    Block* cur = block_at(*link);
    if (cur == b) {
      *link = b->next_free;
      b->next_free = 0;
      return;
    }
    link = &cur->next_free;
  }
  throw ShmError("Arena: free-list corruption (block not found)",
                 ErrorCode::corruption);
}

void Arena::push_free(Block* b) {
  b->free = 1;
  b->next_free = first_free_;
  first_free_ = offset_of(b);
}

Arena::Block* Arena::next_in_memory(Block* b) {
  const std::uint64_t off = offset_of(b) + sizeof(Block) + b->size;
  if (off >= kHeader + total_) return nullptr;
  return block_at(off);
}

Arena::Block* Arena::prev_in_memory(Block* b) {
  if (b->prev_size == 0 && offset_of(b) == kHeader) return nullptr;
  const std::uint64_t off = offset_of(b) - sizeof(Block) - b->prev_size;
  return block_at(off);
}

void* Arena::allocate(std::size_t bytes, std::size_t align) {
  if (bytes == 0) bytes = 1;
  if (align < 16 || (align & (align - 1)) != 0) align = 16;
  // Block payloads are 16-aligned by construction (header multiple of 16);
  // larger alignments are served by over-allocating.
  const std::size_t need = align_up(bytes + (align > 16 ? align : 0), 16);

  pthread_mutex_lock(&mu_);
  // Forced-exhaustion injection site: tests make the "shared arena is
  // full" path deterministically reachable without actually burning the
  // segment. Checked under the lock so hit counts are exact.
  std::uint64_t* link =
      fault::should_fail("arena:allocate") ? nullptr : &first_free_;
  while (link != nullptr && *link != 0) {
    Block* b = block_at(*link);
    if (b->size >= need) {
      *link = b->next_free;
      b->next_free = 0;
      b->free = 0;
      // Split if the remainder can hold another block.
      if (b->size >= need + sizeof(Block) + 16) {
        const std::uint64_t remainder = b->size - need - sizeof(Block);
        b->size = need;
        Block* rest = next_in_memory(b);
        rest->size = remainder;
        rest->prev_size = b->size;
        rest->magic = kBlockMagic;
        rest->next_free = 0;
        push_free(rest);
        Block* after = next_in_memory(rest);
        if (after != nullptr) after->prev_size = rest->size;
      }
      used_ += b->size;
      const std::uint64_t block_off = offset_of(b);
      pthread_mutex_unlock(&mu_);
      std::byte* payload = reinterpret_cast<std::byte*>(b) + sizeof(Block);
      const std::size_t mis =
          reinterpret_cast<std::uintptr_t>(payload) % align;
      if (mis == 0) return payload;
      // Shift forward for over-alignment and leave a marker right before
      // the returned pointer so deallocate can find the block header.
      std::byte* ret = payload + (align - mis);
      auto* marker = reinterpret_cast<std::uint64_t*>(ret - 16);
      marker[0] = kSlackMagic;
      marker[1] = block_off;
      return ret;
    }
    link = &b->next_free;
  }
  pthread_mutex_unlock(&mu_);
  throw ShmError("Arena: out of space (" + std::to_string(need) +
                     " bytes requested, " +
                     std::to_string(static_cast<std::size_t>(total_ - used_)) +
                     " free but fragmented or exhausted)",
                 ErrorCode::arena_exhausted);
}

void Arena::deallocate(void* p) {
  if (p == nullptr) return;
  pthread_mutex_lock(&mu_);
  // Either the pointer sits right after its block header, or it was
  // shifted for over-alignment and a slack marker precedes it.
  std::byte* q = static_cast<std::byte*>(p);
  Block* b = nullptr;
  auto* direct = reinterpret_cast<Block*>(q - sizeof(Block));
  if (direct->magic == kBlockMagic && !direct->free) {
    b = direct;
  } else {
    const auto* marker = reinterpret_cast<const std::uint64_t*>(q - 16);
    if (marker[0] == kSlackMagic) {
      Block* cand = block_at(marker[1]);
      if (cand->magic == kBlockMagic && !cand->free) b = cand;
    }
  }
  if (b == nullptr) {
    pthread_mutex_unlock(&mu_);
    throw ShmError("Arena::deallocate: not an arena pointer",
                   ErrorCode::corruption);
  }
  used_ -= b->size;
  // Coalesce with free neighbours.
  Block* nxt = next_in_memory(b);
  if (nxt != nullptr && nxt->free) {
    remove_free(nxt);
    b->size += sizeof(Block) + nxt->size;
    nxt->magic = 0;
  }
  Block* prv = prev_in_memory(b);
  if (prv != nullptr && prv->free) {
    remove_free(prv);
    prv->size += sizeof(Block) + b->size;
    b->magic = 0;
    b = prv;
  }
  Block* after = next_in_memory(b);
  if (after != nullptr) after->prev_size = b->size;
  push_free(b);
  pthread_mutex_unlock(&mu_);
}

std::size_t Arena::bytes_used() const {
  return static_cast<std::size_t>(used_);
}

int Arena::free_blocks() const {
  int n = 0;
  std::uint64_t off = first_free_;
  while (off != 0) {
    ++n;
    off = block_at(off)->next_free;
  }
  return n;
}

}  // namespace hlsmpc::shm
