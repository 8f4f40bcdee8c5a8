#include "hls/checkpoint.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <utility>

#include "fault/injector.hpp"
#include "shm/segment.hpp"

namespace hlsmpc::hls {

namespace {

constexpr char kMagic[8] = {'H', 'L', 'S', 'C', 'K', 'P', 'T', '1'};
// Format 2 added kind/base_version to the file header and a byte offset
// to each manifest entry (delta checkpoints). Format-1 files fail the
// format check and are treated like torn versions: skipped by restore,
// unprotected by prune.
constexpr std::uint32_t kFormat = 2;

constexpr std::uint32_t kKindFull = 0;
constexpr std::uint32_t kKindDelta = 1;

struct FileHeader {
  char magic[8];
  std::uint32_t format = kFormat;
  std::uint32_t kind = kKindFull;
  std::int32_t scope_kind = 0;
  std::int32_t cache_level = 0;
  std::uint32_t nregions = 0;
  std::uint32_t reserved = 0;
  std::uint64_t version = 0;
  std::uint64_t base_version = 0;  ///< delta only: version it applies on
  std::uint64_t payload_bytes = 0;
};

struct RegionHeader {
  std::int32_t module = 0;
  std::int32_t instance = 0;
  std::uint64_t offset = 0;  ///< byte offset into the region (0 for full)
  std::uint64_t bytes = 0;
};

[[noreturn]] void throw_errno(const std::string& what) {
  throw HlsError(what + ": " + std::strerror(errno));
}

void write_all(int fd, const void* data, std::size_t bytes,
               const char* what) {
  const char* p = static_cast<const char*>(data);
  while (bytes > 0) {
    const ssize_t n = ::write(fd, p, bytes);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno(std::string("checkpoint: write of ") + what + " failed");
    }
    p += n;
    bytes -= static_cast<std::size_t>(n);
  }
}

/// fsync the directory itself: rename/unlink only mutate the directory
/// entry, and that entry is not durable until the directory inode reaches
/// disk — a crash after rename but before the dir sync can resurrect the
/// unlinked name or lose the renamed one. Fault site "ckpt:dirsync"
/// simulates the fsync failing (EIO), so tests can pin that both the
/// publish and the prune paths actually issue it.
void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) throw_errno("checkpoint: open of dir '" + dir + "' failed");
  const bool injected = fault::should_fail("ckpt:dirsync");
  if (injected || ::fsync(fd) != 0) {
    ::close(fd);
    if (injected) errno = EIO;
    throw_errno("checkpoint: fsync of dir '" + dir + "' failed");
  }
  ::close(fd);
}

/// Streams file contents while folding them into a running CRC, so the
/// trailer covers exactly the bytes on disk.
struct CrcWriter {
  int fd;
  std::uint32_t crc = 0;

  void write(const void* data, std::size_t bytes, const char* what) {
    crc = crc32c(data, bytes, crc);
    write_all(fd, data, bytes, what);
  }
};

/// Read-only view of a version file, read in kStreamChunk pieces. mmap
/// when possible — restore then checksums and imports straight from the
/// page cache, no intermediate copy — falling back to a buffered read on
/// filesystems that refuse to map (the bench gate's restore-vs-memcpy
/// bound assumes the mmap path). A mapped view hands each piece back to
/// the kernel (MADV_DONTNEED: the pages stay in the page cache, they
/// leave this process's RSS) once it is hashed or copied, so a restore
/// never holds the file and the regions it fills resident at once.
struct FileView {
  static constexpr std::size_t kStreamChunk = std::size_t{1} << 20;

  const char* data = nullptr;
  std::size_t size = 0;

  FileView() = default;
  FileView(const FileView&) = delete;
  FileView& operator=(const FileView&) = delete;
  ~FileView() {
    if (map_ != nullptr) ::munmap(map_, size);
  }

  bool load(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return false;
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
      ::close(fd);
      return false;
    }
    size = static_cast<std::size_t>(st.st_size);
    if (size == 0) {
      ::close(fd);
      data = nullptr;
      return true;  // header-size validation rejects it downstream
    }
    void* m = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (m != MAP_FAILED) {
      map_ = m;
      data = static_cast<const char*>(m);
      ::close(fd);
      return true;
    }
    buf_.resize(size);
    std::size_t got = 0;
    while (got < size) {
      const ssize_t n = ::read(fd, buf_.data() + got, size - got);
      if (n < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        return false;
      }
      if (n == 0) break;  // truncated under us: short view fails CRC
      got += static_cast<std::size_t>(n);
    }
    ::close(fd);
    size = got;
    data = buf_.data();
    return true;
  }

  /// CRC-32C of the first `len` bytes, releasing each piece once hashed.
  std::uint32_t crc(std::size_t len) const {
    std::uint32_t c = 0;
    for (std::size_t off = 0; off < len; off += kStreamChunk) {
      const std::size_t n = std::min(kStreamChunk, len - off);
      c = crc32c(data + off, n, c);
      release(data + off, n);
    }
    return c;
  }

  /// memcpy of `bytes` from `src` (inside the view) to `dst`, releasing
  /// each source piece once copied.
  void copy_out(std::byte* dst, const char* src, std::size_t bytes) const {
    for (std::size_t off = 0; off < bytes; off += kStreamChunk) {
      const std::size_t n = std::min(kStreamChunk, bytes - off);
      std::memcpy(dst + off, src + off, n);
      release(src + off, n);
    }
  }

 private:
  /// Drop this process's mapping of the pages overlapping [p, p + len);
  /// a later read faults them back from the page cache.
  void release(const char* p, std::size_t len) const {
    if (map_ == nullptr) return;
    const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
    const auto lo = reinterpret_cast<std::uintptr_t>(p) & ~(page - 1);
    const auto hi = reinterpret_cast<std::uintptr_t>(p) + len;
    ::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_DONTNEED);
  }

  void* map_ = nullptr;
  std::vector<char> buf_;
};

/// Parse a strictly-numeric version suffix; -1 on anything else.
long long parse_version(const std::string& name, const std::string& prefix) {
  if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix) != 0) {
    return -1;
  }
  const std::string digits = name.substr(prefix.size());
  char* end = nullptr;
  const long long v = std::strtoll(digits.c_str(), &end, 10);
  if (end != digits.c_str() + digits.size() || v < 0) return -1;
  return v;
}

/// Header of a version file, without checksumming the payload — enough to
/// follow a delta chain (prune's protection walk). False on open/short
/// read/magic/format mismatch.
bool read_header(const std::string& path, FileHeader* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  std::size_t got = 0;
  char buf[sizeof(FileHeader)];
  while (got < sizeof(buf)) {
    const ssize_t n = ::read(fd, buf + got, sizeof(buf) - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  if (got != sizeof(buf)) return false;
  std::memcpy(out, buf, sizeof(buf));
  return std::memcmp(out->magic, kMagic, sizeof(kMagic)) == 0 &&
         out->format == kFormat;
}

/// Whole-file CRC check (magic/format/trailer, no manifest walk): the
/// "last restorable state" test prune uses before deleting anything.
bool file_crc_valid(const std::string& path) {
  FileView file;
  if (!file.load(path)) return false;
  if (file.size < sizeof(FileHeader) + sizeof(std::uint32_t)) return false;
  FileHeader hdr;
  std::memcpy(&hdr, file.data, sizeof(hdr));
  if (std::memcmp(hdr.magic, kMagic, sizeof(kMagic)) != 0) return false;
  if (hdr.format != kFormat) return false;
  const std::size_t body = file.size - sizeof(std::uint32_t);
  std::uint32_t trailer;
  std::memcpy(&trailer, file.data + body, sizeof(trailer));
  return file.crc(body) == trailer;
}

/// One fully validated version file: view kept alive so `pending` spans
/// can point straight into it.
struct Loaded {
  FileView file;
  FileHeader hdr;
  struct Pending {
    RegionHeader rh;
    const char* payload;
  };
  std::vector<Pending> pending;
};

/// Load `path` and validate everything restore relies on: magic, format,
/// scope identity, expected version, CRC trailer, manifest bounds within
/// the file, and every span against the current registry layout (full
/// spans must cover a region exactly; delta spans must fit inside one).
bool load_version(const std::string& path, const CanonicalScope& scope,
                  const Registry& reg, std::uint64_t expect_version,
                  Loaded* out) {
  if (!out->file.load(path)) return false;
  const FileView& file = out->file;
  if (file.size < sizeof(FileHeader) + sizeof(std::uint32_t)) return false;

  FileHeader& hdr = out->hdr;
  std::memcpy(&hdr, file.data, sizeof(hdr));
  if (std::memcmp(hdr.magic, kMagic, sizeof(kMagic)) != 0) return false;
  if (hdr.format != kFormat) return false;
  if (hdr.version != expect_version) return false;
  if (hdr.scope_kind != static_cast<std::int32_t>(scope.kind) ||
      hdr.cache_level != scope.cache_level) {
    return false;
  }
  if (hdr.kind == kKindFull) {
    if (hdr.base_version != 0) return false;
  } else if (hdr.kind == kKindDelta) {
    if (hdr.base_version == 0 || hdr.base_version >= hdr.version) return false;
  } else {
    return false;
  }

  const std::size_t body = file.size - sizeof(std::uint32_t);
  std::uint32_t trailer;
  std::memcpy(&trailer, file.data + body, sizeof(trailer));
  if (file.crc(body) != trailer) return false;

  // Manifest walk: bounds-check the declared spans against the file, then
  // against the current registry layout. Any mismatch disqualifies the
  // whole version — restore's imports are all-or-nothing per chain.
  out->pending.reserve(hdr.nregions);
  std::size_t off = sizeof(FileHeader);
  std::uint64_t payload_total = 0;
  for (std::uint32_t i = 0; i < hdr.nregions; ++i) {
    if (off + sizeof(RegionHeader) > body) return false;
    RegionHeader rh;
    std::memcpy(&rh, file.data + off, sizeof(rh));
    off += sizeof(rh);
    if (rh.bytes > body - off) return false;
    out->pending.push_back(Loaded::Pending{rh, file.data + off});
    off += rh.bytes;
    payload_total += rh.bytes;
  }
  if (off != body || payload_total != hdr.payload_bytes) return false;

  const int ninst = reg.scopes().num_instances(scope_id(reg.scopes(), scope));
  for (const Loaded::Pending& p : out->pending) {
    if (p.rh.instance < 0 || p.rh.instance >= ninst || p.rh.module < 0 ||
        p.rh.module >= reg.num_modules() || !reg.committed(p.rh.module)) {
      return false;
    }
    const std::size_t region = reg.module(p.rh.module).region_size(scope);
    if (hdr.kind == kKindFull) {
      if (p.rh.offset != 0 || p.rh.bytes != region) return false;
    } else {
      if (p.rh.offset > region || p.rh.bytes > region - p.rh.offset) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

CheckpointStore::CheckpointStore(Options opts) : opts_(std::move(opts)) {
  if (opts_.dir.empty()) {
    throw HlsError("CheckpointStore: empty directory");
  }
  if (opts_.tag.empty()) {
    throw HlsError("CheckpointStore: empty tag");
  }
  if (opts_.keep < 2) opts_.keep = 2;
  if (::mkdir(opts_.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    throw_errno("CheckpointStore: mkdir '" + opts_.dir + "' failed");
  }
  cleanup_stale_tmp();
}

std::string CheckpointStore::stem(const CanonicalScope& scope) const {
  return opts_.tag + "." + to_token(scope);
}

std::string CheckpointStore::version_path(const CanonicalScope& scope,
                                          std::uint64_t v) const {
  return opts_.dir + "/" + stem(scope) + ".v" + std::to_string(v);
}

std::vector<std::uint64_t> CheckpointStore::versions(
    const CanonicalScope& scope) const {
  const std::string prefix = stem(scope) + ".v";
  std::vector<std::uint64_t> out;
  DIR* dir = ::opendir(opts_.dir.c_str());
  if (dir == nullptr) return out;
  while (dirent* e = ::readdir(dir)) {
    const long long v = parse_version(e->d_name, prefix);
    if (v >= 0) out.push_back(static_cast<std::uint64_t>(v));
  }
  ::closedir(dir);
  std::sort(out.begin(), out.end());
  return out;
}

int CheckpointStore::cleanup_stale_tmp() const {
  const std::string marker = ".tmp.";
  int removed = 0;
  DIR* dir = ::opendir(opts_.dir.c_str());
  if (dir == nullptr) return 0;
  while (dirent* e = ::readdir(dir)) {
    const std::string name = e->d_name;
    if (name.compare(0, opts_.tag.size() + 1, opts_.tag + ".") != 0) continue;
    const std::size_t pos = name.rfind(marker);
    if (pos == std::string::npos) continue;
    const std::string digits = name.substr(pos + marker.size());
    char* end = nullptr;
    const long pid = std::strtol(digits.c_str(), &end, 10);
    if (end != digits.c_str() + digits.size() || pid <= 0) continue;
    if (shm::process_alive(pid)) continue;
    if (::unlink((opts_.dir + "/" + name).c_str()) == 0) ++removed;
  }
  ::closedir(dir);
  return removed;
}

void CheckpointStore::prune(const CanonicalScope& scope,
                            std::uint64_t known_valid) {
  std::vector<std::uint64_t> all = versions(scope);
  if (static_cast<int>(all.size()) <= opts_.keep) return;

  // Protected set: the newest CRC-valid version plus every link of its
  // delta chain. Deleting any of them would throw away the last
  // restorable state — with keep == 2, two torn saves in a row must not
  // orphan the store. `known_valid` lets the non-torn save path skip the
  // CRC scan (the version it just fsynced is valid by construction).
  std::set<std::uint64_t> protected_;
  std::uint64_t newest_valid = known_valid;
  if (newest_valid == 0) {
    for (auto it = all.rbegin(); it != all.rend(); ++it) {
      if (file_crc_valid(version_path(scope, *it))) {
        newest_valid = *it;
        break;
      }
    }
  }
  if (newest_valid != 0) {
    protected_.insert(newest_valid);
    FileHeader hdr;
    std::uint64_t v = newest_valid;
    int depth = 0;
    while (read_header(version_path(scope, v), &hdr) &&
           hdr.kind == kKindDelta && depth++ < 64) {
      v = hdr.base_version;
      if (v == 0 || !protected_.insert(v).second) break;  // cycle guard
    }
  }

  std::size_t excess = all.size() - static_cast<std::size_t>(opts_.keep);
  int unlinked = 0;
  for (std::size_t i = 0; i < all.size() && excess > 0; ++i) {
    if (protected_.count(all[i]) != 0) continue;
    if (::unlink(version_path(scope, all[i]).c_str()) == 0) ++unlinked;
    --excess;
  }
  // The unlinks are directory mutations too: without this a crash can
  // resurrect a pruned version and confuse newest-first recovery.
  if (unlinked > 0) fsync_dir(opts_.dir);
}

CheckpointStore::Report CheckpointStore::save(StorageManager& storage,
                                              const Registry& reg,
                                              const CanonicalScope& scope) {
  return save_impl(storage, reg, scope, /*incremental=*/false);
}

CheckpointStore::Report CheckpointStore::save_incremental(
    StorageManager& storage, const Registry& reg,
    const CanonicalScope& scope) {
  return save_impl(storage, reg, scope, /*incremental=*/true);
}

CheckpointStore::Report CheckpointStore::save_impl(
    StorageManager& storage, const Registry& reg, const CanonicalScope& scope,
    bool incremental) {
  (void)reg;
  struct Entry {
    int instance;
    int module;
    StorageManager::Resolved r;
    bool scanned = false;  ///< delta of a file-tier region: `scan` is set
    TierScan scan;
  };
  std::vector<Entry> entries;
  storage.for_each_materialized(
      scope, [&](int instance, int module, StorageManager::Resolved r) {
        entries.push_back(Entry{instance, module, r, false, {}});
      });

  // Delta only when this store instance has a base the dirty epochs are
  // relative to, and the chain has not reached `keep` links (unbounded
  // chains would defeat pruning: every link is protected).
  std::uint64_t base_version = 0;
  bool delta = false;
  if (incremental) {
    const auto base = last_saved_.find(scope);
    const auto links = chain_len_.find(scope);
    if (base != last_saved_.end() &&
        (links == chain_len_.end() || links->second < opts_.keep)) {
      delta = true;
      base_version = base->second;
    }
  }

  // The manifest: whole regions for a full save; for a delta, file-tier
  // regions contribute their dirty page spans while anonymous regions
  // (no dirty tracking) are carried whole.
  struct Span {
    int instance;
    int module;
    std::uint64_t offset;
    const std::byte* data;
    std::uint64_t bytes;
  };
  std::vector<Span> spans;
  for (Entry& e : entries) {
    if (delta) {
      e.scanned = storage.tier_scan(scope, e.instance, e.module, &e.scan);
      if (e.scanned) {
        for (const auto& [off, len] : e.scan.spans) {
          spans.push_back(Span{e.instance, e.module, off, e.r.base + off, len});
        }
        continue;
      }
    }
    spans.push_back(Span{e.instance, e.module, 0, e.r.base, e.r.size});
  }

  const std::vector<std::uint64_t> existing = versions(scope);
  const std::uint64_t version = existing.empty() ? 1 : existing.back() + 1;

  FileHeader hdr;
  std::memcpy(hdr.magic, kMagic, sizeof(kMagic));
  hdr.kind = delta ? kKindDelta : kKindFull;
  hdr.scope_kind = static_cast<std::int32_t>(scope.kind);
  hdr.cache_level = scope.cache_level;
  hdr.nregions = static_cast<std::uint32_t>(spans.size());
  hdr.version = version;
  hdr.base_version = base_version;
  for (const Span& s : spans) hdr.payload_bytes += s.bytes;

  const std::string tmp = opts_.dir + "/" + stem(scope) + ".tmp." +
                          std::to_string(static_cast<long>(::getpid()));
  const std::string final_path = version_path(scope, version);

  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) throw_errno("checkpoint: open '" + tmp + "' failed");

  bool torn = false;
  try {
    CrcWriter w{fd};
    w.write(&hdr, sizeof(hdr), "header");
    for (const Span& s : spans) {
      RegionHeader rh;
      rh.module = s.module;
      rh.instance = s.instance;
      rh.offset = s.offset;
      rh.bytes = s.bytes;
      w.write(&rh, sizeof(rh), "span header");
      // Torn-write injection: a crash mid-payload leaves a short file
      // that still gets published (the rename below) — exactly the
      // half-written version restore() must reject by CRC/size and fall
      // back past. Half of one span keeps the tear unambiguous.
      if (fault::should_fail("ckpt:write")) {
        write_all(fd, s.data, s.bytes / 2, "torn payload");
        torn = true;
        break;
      }
      w.write(s.data, s.bytes, "span payload");
    }
    if (!torn) {
      write_all(fd, &w.crc, sizeof(w.crc), "crc trailer");
    }
    if (::fsync(fd) != 0) throw_errno("checkpoint: fsync failed");
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), final_path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw_errno("checkpoint: rename to '" + final_path + "' failed");
  }
  // The rename is only a directory-entry update; the version is not
  // actually published until the directory itself is durable.
  fsync_dir(opts_.dir);

  prune(scope, torn ? 0 : version);

  if (!torn) {
    // New dirty-tracking epoch: the next delta is relative to `version`.
    // A delta's scan already hashed every page of its file-tier regions;
    // those CRCs become the baselines instead of a second full hash.
    last_saved_[scope] = version;
    chain_len_[scope] = delta ? chain_len_[scope] + 1 : 0;
    for (const Entry& e : entries) {
      storage.tier_rebaseline(scope, e.instance, e.module,
                              e.scanned ? &e.scan : nullptr);
    }
  }

  Report rep;
  rep.version = version;
  rep.payload_bytes = hdr.payload_bytes;
  rep.regions = static_cast<int>(spans.size());
  rep.delta = delta;
  rep.base_version = base_version;
  return rep;
}

CheckpointStore::Report CheckpointStore::restore(StorageManager& storage,
                                                 const Registry& reg,
                                                 const CanonicalScope& scope) {
  std::vector<std::uint64_t> all = versions(scope);
  if (all.empty()) {
    throw HlsError("restore: no checkpoint of scope " + to_string(scope) +
                   " under '" + opts_.dir + "' (tag '" + opts_.tag + "')");
  }

  for (auto it = all.rbegin(); it != all.rend(); ++it) {
    // Resolve the candidate's delta chain, newest link first: every link
    // must validate before anything is imported (all-or-nothing), and a
    // torn link anywhere skips to the next older candidate.
    std::vector<std::unique_ptr<Loaded>> chain;
    auto lead = std::make_unique<Loaded>();
    if (!load_version(version_path(scope, *it), scope, reg, *it, lead.get())) {
      continue;
    }
    chain.push_back(std::move(lead));
    bool ok = true;
    while (chain.back()->hdr.kind == kKindDelta) {
      if (chain.size() > 64) {  // depth guard (cycles are header-forgeable)
        ok = false;
        break;
      }
      const std::uint64_t base = chain.back()->hdr.base_version;
      auto link = std::make_unique<Loaded>();
      if (!load_version(version_path(scope, base), scope, reg, base,
                        link.get())) {
        ok = false;
        break;
      }
      chain.push_back(std::move(link));
    }
    if (!ok) continue;

    // Apply oldest link (the full base) to newest. A full-kind span
    // covers its region exactly (load_version checked), so a region it
    // first-touches skips the initializers it would overwrite.
    std::size_t applied = 0;
    int nspans = 0;
    for (auto f = chain.rbegin(); f != chain.rend(); ++f) {
      const FileView& file = (*f)->file;
      for (const Loaded::Pending& p : (*f)->pending) {
        storage.import_region(scope, p.rh.instance, p.rh.module, p.rh.offset,
                              p.rh.bytes, [&](std::byte* dst) {
                                file.copy_out(dst, p.payload, p.rh.bytes);
                              });
        applied += p.rh.bytes;
        ++nspans;
      }
    }

    // Storage now matches this version exactly: make it the dirty epoch
    // and the base for the next incremental save.
    storage.for_each_materialized(
        scope, [&](int instance, int module, StorageManager::Resolved) {
          storage.tier_rebaseline(scope, instance, module);
        });
    last_saved_[scope] = *it;
    chain_len_[scope] = static_cast<int>(chain.size()) - 1;

    Report rep;
    rep.version = *it;
    rep.payload_bytes = applied;
    rep.regions = nspans;
    rep.delta = chain.size() > 1;
    rep.base_version = chain.front()->hdr.base_version;
    return rep;
  }

  throw HlsError("restore: no consistent checkpoint of scope " +
                     to_string(scope) + " under '" + opts_.dir +
                     "' — every version failed validation",
                 ErrorCode::corruption);
}

}  // namespace hlsmpc::hls
