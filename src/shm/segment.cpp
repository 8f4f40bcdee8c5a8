#include "shm/segment.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "fault/injector.hpp"

#ifndef MAP_FIXED_NOREPLACE
#define MAP_FIXED_NOREPLACE 0x100000
#endif

namespace hlsmpc::shm {

namespace {

// EINTR-safe shm_open/ftruncate (a profiler or the ProcessNode parent's
// SIGCHLD can interrupt either mid-call).
int shm_open_retry(const char* name, int flags, mode_t mode) {
  int fd;
  do {
    fd = shm_open(name, flags, mode);
  } while (fd < 0 && errno == EINTR);
  return fd;
}

int ftruncate_retry(int fd, off_t length) {
  int rc;
  do {
    rc = ftruncate(fd, length);
  } while (rc != 0 && errno == EINTR);
  return rc;
}

/// Pid embedded in a unique_name()-shaped basename ("hlsmpc.<prefix>.
/// <pid>.<seq>"), or -1 when the name has a different shape.
long embedded_pid(const std::string& basename, const std::string& prefix) {
  const std::string head = "hlsmpc." + prefix + ".";
  if (basename.rfind(head, 0) != 0) return -1;
  const std::size_t pid_begin = head.size();
  const std::size_t pid_end = basename.find('.', pid_begin);
  if (pid_end == std::string::npos || pid_end == pid_begin) return -1;
  char* end = nullptr;
  const long pid =
      std::strtol(basename.c_str() + pid_begin, &end, 10);
  if (end != basename.c_str() + pid_end || pid <= 0) return -1;
  return pid;
}

int open_retry(const char* path, int flags, mode_t mode) {
  int fd;
  do {
    fd = open(path, flags, mode);
  } while (fd < 0 && errno == EINTR);
  return fd;
}

std::size_t page_size() {
  static const std::size_t v =
      static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return v;
}

/// True when `name` (a "/segment" shm name) currently resolves to the
/// object behind `fd`. A reclaiming owner uses this to detect that a
/// concurrent cleanup_stale() sweep — which judged the dead pid embedded
/// in the name, not the object — unlinked its freshly created segment.
bool name_refers_to(const std::string& name, int fd) {
  struct stat ours {};
  struct stat named {};
  if (fstat(fd, &ours) != 0) return false;
  if (stat(("/dev/shm" + name).c_str(), &named) != 0) return false;
  return named.st_ino == ours.st_ino && named.st_dev == ours.st_dev;
}

}  // namespace

bool process_alive(long pid) {
  return kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH;
}

AnonymousSegment::AnonymousSegment(std::size_t bytes) : size_(bytes) {
  void* p = MAP_FAILED;
  if (!fault::should_fail("shm:anon_mmap")) {
    p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
             MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  } else {
    errno = ENOMEM;
  }
  if (p == MAP_FAILED) {
    throw ShmError(std::string("AnonymousSegment: mmap failed: ") +
                       std::strerror(errno),
                   ErrorCode::segment_create);
  }
  base_ = p;
}

AnonymousSegment::~AnonymousSegment() {
  if (base_ != nullptr) munmap(base_, size_);
}

NamedSegment::NamedSegment(const std::string& name, std::size_t bytes,
                           void* address_hint, bool owner,
                           ult::TaskContext* ctx)
    : name_(name), size_(bytes), owner_(owner) {
  int flags = O_RDWR;
  if (owner) flags |= O_CREAT | O_EXCL;
  int fd = -1;
  if (fault::should_fail("shm:shm_open")) {
    errno = EMFILE;
  } else {
    fd = shm_open_retry(name.c_str(), flags, 0600);
    if (fd < 0 && owner && errno == EEXIST) {
      // A same-named segment exists. If it is the corpse of a crashed run
      // — any "hlsmpc.<...>.<pid>.<seq>" name whose embedded pid is gone —
      // reclaim the name; a live owner keeps it and the collision stays an
      // error.
      const std::string base = name.substr(1);
      const std::size_t last_dot = base.rfind('.');
      const std::size_t pid_dot =
          last_dot == std::string::npos ? std::string::npos
                                        : base.rfind('.', last_dot - 1);
      if (base.rfind("hlsmpc.", 0) == 0 && pid_dot != std::string::npos) {
        char* end = nullptr;
        const long owner_pid =
            std::strtol(base.c_str() + pid_dot + 1, &end, 10);
        if (end == base.c_str() + last_dot && owner_pid > 0 &&
            !process_alive(owner_pid)) {
          // A concurrent cleanup_stale() sweep may have judged this name
          // stale too (the embedded pid IS dead) and can unlink whatever
          // the name refers to between our create and its unlink — which
          // would be OUR fresh segment, not the corpse. Create, then
          // verify the name still resolves to our object; re-create if a
          // sweep stole it. Each sweep visits a name once, so the retry
          // count is bounded by the number of concurrent sweeps.
          for (int attempt = 0; fd < 0 && attempt < 8; ++attempt) {
            if (ctx != nullptr) ctx->sync_point("shm:reclaim_unlink");
            shm_unlink(name.c_str());
            if (ctx != nullptr) ctx->sync_point("shm:reclaim_create");
            fd = shm_open_retry(name.c_str(), flags, 0600);
            if (fd < 0) break;  // a live creator won the race: real EEXIST
            if (ctx != nullptr) ctx->sync_point("shm:reclaim_verify");
            if (!name_refers_to(name, fd)) {
              close(fd);
              fd = -1;
            }
          }
        }
      }
      if (fd < 0) errno = EEXIST;
    }
  }
  if (fd < 0) {
    throw ShmError(
        "NamedSegment: shm_open('" + name + "') failed: " +
            std::strerror(errno),
        ErrorCode::segment_create);
  }
  const bool truncate_fails = fault::should_fail("shm:ftruncate");
  if (owner &&
      (truncate_fails || ftruncate_retry(fd, static_cast<off_t>(bytes)) != 0)) {
    if (truncate_fails) errno = ENOSPC;
    const int saved = errno;
    close(fd);
    shm_unlink(name.c_str());
    throw ShmError(std::string("NamedSegment: ftruncate failed: ") +
                       std::strerror(saved),
                   ErrorCode::segment_create);
  }
  // The same virtual address in every process: map with an explicit hint
  // and refuse to silently relocate.
  void* p = MAP_FAILED;
  if (fault::should_fail("shm:mmap")) {
    errno = ENOMEM;
  } else {
    p = mmap(address_hint, bytes, PROT_READ | PROT_WRITE,
             MAP_SHARED | (address_hint != nullptr ? MAP_FIXED_NOREPLACE : 0),
             fd, 0);
  }
  close(fd);
  const bool wrong_address =
      p != MAP_FAILED &&
      ((address_hint != nullptr && p != address_hint) ||
       fault::should_fail("shm:map_address"));
  if (p == MAP_FAILED || wrong_address) {
    if (p != MAP_FAILED) munmap(p, bytes);
    if (owner) shm_unlink(name.c_str());
    throw ShmError(
        "NamedSegment: cannot map '" + name + "' at the requested address: " +
            std::strerror(errno),
        wrong_address ? ErrorCode::segment_address : ErrorCode::segment_create);
  }
  base_ = p;
}

NamedSegment::~NamedSegment() {
  if (base_ != nullptr) munmap(base_, size_);
  if (owner_) shm_unlink(name_.c_str());
}

std::string NamedSegment::unique_name(const std::string& prefix) {
  static std::atomic<unsigned long> seq{0};
  return "/hlsmpc." + prefix + "." + std::to_string(getpid()) + "." +
         std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
}

int NamedSegment::cleanup_stale(const std::string& prefix,
                                ult::TaskContext* ctx) {
  DIR* dir = opendir("/dev/shm");
  if (dir == nullptr) return 0;
  int removed = 0;
  while (dirent* e = readdir(dir)) {
    const std::string base = e->d_name;
    const long pid = embedded_pid(base, prefix);
    if (pid > 0 && !process_alive(pid)) {
      // The liveness judgement is about the pid in the NAME; by the time
      // the unlink runs, a reclaiming owner may have re-created the name
      // (see the constructor). That owner detects the theft and retries;
      // the sync point lets the explorer drive this exact interleaving.
      if (ctx != nullptr) ctx->sync_point("shm:stale_unlink");
      if (shm_unlink(("/" + base).c_str()) == 0) ++removed;
    }
  }
  closedir(dir);
  return removed;
}

MappedSegment::MappedSegment(const std::string& path, std::size_t bytes)
    : path_(path), size_(bytes) {
  int fd = -1;
  if (fault::should_fail("shm:file_open")) {
    errno = EMFILE;
  } else {
    fd = open_retry(path.c_str(), O_RDWR | O_CREAT, 0600);
  }
  if (fd < 0) {
    throw ShmError(
        "MappedSegment: open('" + path + "') failed: " +
            std::strerror(errno),
        ErrorCode::segment_create);
  }
  struct stat st {};
  if (fstat(fd, &st) != 0) {
    const int saved = errno;
    close(fd);
    throw ShmError(std::string("MappedSegment: fstat failed: ") +
                       std::strerror(saved),
                   ErrorCode::segment_create);
  }
  reopened_ = bytes > 0 && static_cast<std::size_t>(st.st_size) ==
                               static_cast<std::size_t>(bytes);
  if (!reopened_) {
    // Absent, empty, or size-mismatched: shrink to zero first so stale
    // bytes of a differently-sized leftover cannot leak into the fresh
    // region, then grow to a hole of zeros.
    const bool truncate_fails = fault::should_fail("shm:file_truncate");
    if (truncate_fails || ftruncate_retry(fd, 0) != 0 ||
        ftruncate_retry(fd, static_cast<off_t>(bytes)) != 0) {
      if (truncate_fails) errno = ENOSPC;
      const int saved = errno;
      close(fd);
      throw ShmError(std::string("MappedSegment: ftruncate failed: ") +
                         std::strerror(saved),
                     ErrorCode::segment_create);
    }
  }
  void* p = MAP_FAILED;
  if (fault::should_fail("shm:file_mmap")) {
    errno = ENOMEM;
  } else {
    p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  }
  if (p == MAP_FAILED) {
    const int saved = errno;
    close(fd);
    throw ShmError(
        "MappedSegment: cannot map '" + path + "': " + std::strerror(saved),
        ErrorCode::segment_create);
  }
  base_ = p;
  fd_ = fd;
}

MappedSegment::~MappedSegment() {
  if (base_ != nullptr) munmap(base_, size_);
  if (fd_ >= 0) close(fd_);
}

void MappedSegment::sync(std::size_t offset, std::size_t len,
                         bool blocking) const {
  if (base_ == nullptr || len == 0 || offset >= size_) return;
  const std::size_t begin = offset & ~(page_size() - 1);
  const std::size_t end = std::min(offset + len, size_);
  if (fault::should_fail("shm:msync")) {
    throw ShmError("MappedSegment: msync('" + path_ +
                       "') failed: Input/output error",
                   ErrorCode::corruption);
  }
  if (msync(static_cast<char*>(base_) + begin, end - begin,
            blocking ? MS_SYNC : MS_ASYNC) != 0) {
    // A failed write-back means the file and the mapping may disagree —
    // torn shared state, not a retryable resource failure.
    throw ShmError(
        "MappedSegment: msync('" + path_ + "') failed: " +
            std::strerror(errno),
        ErrorCode::corruption);
  }
}

std::optional<std::size_t> MappedSegment::dirty_bytes() const {
  // cachestat(2) (Linux 6.5) is newer than the libc and kernel headers
  // this builds against: its number (the same on every architecture from
  // 424 on) and structs as in the kernel's uapi <linux/mman.h>.
  constexpr long kSysCachestat = 451;
  struct { std::uint64_t off, len; } range{0, 0};  // len 0: to the end
  struct {
    std::uint64_t nr_cache, nr_dirty, nr_writeback, nr_evicted, nr_recent;
  } cs{};
  if (syscall(kSysCachestat, fd_, &range, &cs, 0) != 0) return std::nullopt;
  return static_cast<std::size_t>(cs.nr_dirty + cs.nr_writeback) *
         page_size();
}

std::string MappedSegment::unique_path(const std::string& dir,
                                       const std::string& prefix) {
  static std::atomic<unsigned long> seq{0};
  return dir + "/hlsmpc." + prefix + "." + std::to_string(getpid()) + "." +
         std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
}

int MappedSegment::cleanup_stale(const std::string& dir,
                                 const std::string& prefix) {
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0;
  int removed = 0;
  while (dirent* e = readdir(d)) {
    const std::string base = e->d_name;
    const long pid = embedded_pid(base, prefix);
    if (pid > 0 && !process_alive(pid)) {
      if (unlink((dir + "/" + base).c_str()) == 0) ++removed;
    }
  }
  closedir(d);
  return removed;
}

}  // namespace hlsmpc::shm
