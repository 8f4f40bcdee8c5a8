// Shared-memory segments mapped at the same virtual address in every
// process of a node — the substrate for HLS under process-based MPI
// (paper §IV.C, the isomalloc technique of PM2).
//
// Two flavours:
//  - AnonymousSegment: MAP_SHARED|MAP_ANONYMOUS, created before fork();
//    children inherit the mapping at the same address. This is the form
//    the ProcessNode harness uses.
//  - NamedSegment: shm_open + mmap with an explicit address hint and
//    MAP_FIXED_NOREPLACE, attachable by unrelated processes at the same
//    virtual address (the general mechanism the paper describes).
//
// Failure containment: every system-call failure surfaces as a ShmError
// carrying an ErrorCode (recoverable resource failures vs fatal
// corruption — see fault/error.hpp); syscalls are EINTR-safe; and
// unique_name()/cleanup_stale() give crashed runs a way to not poison
// /dev/shm forever.
#pragma once

#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>

#include "fault/error.hpp"
#include "ult/task_context.hpp"

namespace hlsmpc::shm {

/// False once the process `pid` is gone (kill(pid, 0) reports ESRCH) —
/// the liveness probe behind every reclaim of a pid-stamped name.
bool process_alive(long pid);

class ShmError : public std::runtime_error {
 public:
  explicit ShmError(const std::string& what,
                    ErrorCode code = ErrorCode::invalid_argument)
      : std::runtime_error(what), code_(code) {}

  ErrorCode code() const { return code_; }
  /// Degradation (retryable resource failure) vs torn shared state.
  bool recoverable() const { return hlsmpc::recoverable(code_); }

 private:
  ErrorCode code_;
};

class AnonymousSegment {
 public:
  explicit AnonymousSegment(std::size_t bytes);
  ~AnonymousSegment();
  AnonymousSegment(const AnonymousSegment&) = delete;
  AnonymousSegment& operator=(const AnonymousSegment&) = delete;

  void* base() const { return base_; }
  std::size_t size() const { return size_; }

 private:
  void* base_ = nullptr;
  std::size_t size_ = 0;
};

class NamedSegment {
 public:
  /// Create (owner=true) or attach (owner=false) the segment `name`,
  /// mapping it at `address_hint` (must be identical in all attachers —
  /// that is the whole point). Throws ShmError if the address is taken.
  /// An owner whose name collides with a segment orphaned by a crashed
  /// run (a unique_name() embedding a dead pid) unlinks the corpse and
  /// retries; the reclaim verifies afterwards that the name still refers
  /// to the segment it created (a concurrent cleanup_stale() sweep that
  /// already judged the embedded pid dead may unlink the reclaimed name
  /// from under us) and re-creates if not.
  ///
  /// `ctx` is optional schedule-explorer instrumentation: when non-null,
  /// the reclaim path crosses named sync points so the deterministic
  /// executor can interleave it against a cleanup_stale() sweep.
  NamedSegment(const std::string& name, std::size_t bytes, void* address_hint,
               bool owner, ult::TaskContext* ctx = nullptr);
  ~NamedSegment();
  NamedSegment(const NamedSegment&) = delete;
  NamedSegment& operator=(const NamedSegment&) = delete;

  void* base() const { return base_; }
  std::size_t size() const { return size_; }
  const std::string& name() const { return name_; }

  /// Collision-safe segment name: "/hlsmpc.<prefix>.<pid>.<seq>". The
  /// embedded pid is what cleanup_stale() checks for liveness; the
  /// process-wide sequence number makes concurrent callers collision-free
  /// within one process, O_EXCL catches the rest.
  static std::string unique_name(const std::string& prefix);

  /// Unlink /dev/shm segments named by unique_name(prefix) whose creating
  /// process is gone (crashed runs leak their segments: no destructor ran).
  /// Returns the number of segments removed. `ctx`: see the constructor —
  /// the liveness-check/unlink gap is a named sync point when non-null.
  static int cleanup_stale(const std::string& prefix,
                           ult::TaskContext* ctx = nullptr);

 private:
  std::string name_;
  void* base_ = nullptr;
  std::size_t size_ = 0;
  bool owner_ = false;
};

/// A regular file mapped MAP_SHARED — the substrate of the file-backed HLS
/// storage tier (src/hls/tier.hpp). Unlike the segments above it is not
/// meant to be attached by other processes at the same address within one
/// run; it trades that for two properties anonymous memory cannot give:
///  - out-of-core capacity: the kernel pages the mapping against the file,
///    so a region can exceed DRAM; what stays resident is the kernel's
///    page cache's business;
///  - persistence: the file names a stable path that survives the process,
///    so a scope written before exit re-opens bit-identical after restart.
///
/// The fd stays open for the lifetime of the mapping: the page cache uses
/// it for read-ahead hints (one rank's hint populates the kernel page
/// cache for every co-resident rank) and dirty_bytes() for cachestat;
/// sync() uses msync for durability.
class MappedSegment {
 public:
  /// Map `path` at kernel-chosen address. A pre-existing file of exactly
  /// `bytes` is re-opened and its contents kept (reopened() == true);
  /// anything else — absent, empty, or size mismatch — is (re)created and
  /// truncated to `bytes` of zeros.
  MappedSegment(const std::string& path, std::size_t bytes);
  ~MappedSegment();
  MappedSegment(const MappedSegment&) = delete;
  MappedSegment& operator=(const MappedSegment&) = delete;

  void* base() const { return base_; }
  std::size_t size() const { return size_; }
  const std::string& path() const { return path_; }
  int fd() const { return fd_; }
  /// True when the backing file pre-existed with the right size and its
  /// previous contents are visible through base().
  bool reopened() const { return reopened_; }

  /// msync the byte range [offset, offset+len) to the backing file
  /// (offset is aligned down to a page internally). Blocking uses MS_SYNC;
  /// non-blocking schedules the write-back (MS_ASYNC).
  void sync(std::size_t offset, std::size_t len, bool blocking) const;

  /// Bytes of the file's pages that the kernel holds dirty or under
  /// write-back, by cachestat(2) — what a blocking sync() of the whole
  /// mapping writes. nullopt where the kernel has no cachestat (before
  /// Linux 6.5).
  std::optional<std::size_t> dirty_bytes() const;

  /// Collision-safe spill path "<dir>/hlsmpc.<prefix>.<pid>.<seq>" —
  /// same shape as NamedSegment::unique_name so cleanup_stale below can
  /// reclaim files orphaned by crashed runs.
  static std::string unique_path(const std::string& dir,
                                 const std::string& prefix);

  /// Unlink unique_path()-shaped files under `dir` whose creating process
  /// is gone. Returns the number removed. Stable (user-named) tier files
  /// do not match the shape and are never touched.
  static int cleanup_stale(const std::string& dir, const std::string& prefix);

 private:
  std::string path_;
  void* base_ = nullptr;
  std::size_t size_ = 0;
  int fd_ = -1;
  bool reopened_ = false;
};

}  // namespace hlsmpc::shm
