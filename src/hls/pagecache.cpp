#include "hls/pagecache.hpp"

#include <fcntl.h>
#include <linux/userfaultfd.h>
#include <sys/ioctl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>

#include "fault/injector.hpp"
#include "hls/crc32c.hpp"
#include "hls/registry.hpp"
#include "obs/recorder.hpp"
#include "shm/segment.hpp"

namespace hlsmpc::hls {

struct PageCache::Region {
  shm::MappedSegment* seg = nullptr;
  int sid = -1;
  int instance = -1;
  std::size_t npages = 0;
  /// Per-page CRC at the last rebaseline; empty before the first one.
  std::vector<std::uint32_t> base_crc;
  /// Kernel write tracking: `armed` once registered with the cache's
  /// userfaultfd, `refused` for good once a step failed.
  enum class Bits { unarmed, armed, refused } bits = Bits::unarmed;
  std::uint64_t drains = 0;      ///< drains of the kernel's bits so far
  std::uint64_t base_drain = 0;  ///< drain base_crc was hashed after
  /// Per page: the last drain that reported it written (0: none). The
  /// candidates of a pass are the pages reported after base_drain.
  std::vector<std::uint64_t> written_at;
};

namespace {

// The userfaultfd write-protect and PAGEMAP_SCAN interface (Linux 6.7),
// which the build's headers predate: declared here as the kernel's uapi
// headers define them.
constexpr std::uint64_t kUffdFeatureWpUnpopulated = 1u << 13;
constexpr std::uint64_t kUffdFeatureWpAsync = 1u << 15;
constexpr std::uint64_t kPmScanWpMatching = 1u << 0;
constexpr std::uint64_t kPmScanCheckWpasync = 1u << 1;
constexpr std::uint64_t kPageIsWritten = 1u << 1;

struct PageRegion {  // struct page_region
  std::uint64_t start;
  std::uint64_t end;
  std::uint64_t categories;
};

struct PmScanArg {  // struct pm_scan_arg
  std::uint64_t size;
  std::uint64_t flags;
  std::uint64_t start;
  std::uint64_t end;
  std::uint64_t walk_end;
  std::uint64_t vec;
  std::uint64_t vec_len;
  std::uint64_t max_pages;
  std::uint64_t category_inverted;
  std::uint64_t category_mask;
  std::uint64_t category_anyof_mask;
  std::uint64_t return_mask;
};

constexpr unsigned long kPagemapScan = _IOWR('f', 16, PmScanArg);

/// Address ranges one PAGEMAP_SCAN call reports; a drain with more calls
/// again from where the kernel stopped.
constexpr std::size_t kScanRanges = 64;

std::size_t sys_page_bytes() {
  return static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

/// The bytes of `seg`'s mapping: its size rounded up to system pages.
std::size_t mapped_bytes(const shm::MappedSegment& seg) {
  const std::size_t sys = sys_page_bytes();
  return (seg.size() + sys - 1) / sys * sys;
}

std::size_t page_span(std::size_t page_bytes, std::size_t region_bytes,
                      std::size_t page) {
  const std::size_t off = page * page_bytes;
  return std::min(page_bytes, region_bytes - off);
}

/// The kernel's page-cache residency of one mapping by mincore(2), read
/// in pieces of kPiece system pages: a query allocates nothing, and a walk
/// forward costs one system call per piece.
class Residency {
 public:
  explicit Residency(const shm::MappedSegment& seg) : seg_(seg) {}

  /// True when every system page of [off, off + len) is cached.
  bool all(std::size_t off, std::size_t len) {
    for (std::size_t s = off / sys_page_; s * sys_page_ < off + len; ++s) {
      if (s < lo_ || s >= hi_) fill(s);
      if ((vec_[s - lo_] & 1) == 0) return false;
    }
    return true;
  }

 private:
  static constexpr std::size_t kPiece = 256;

  void fill(std::size_t s) {
    const std::size_t n =
        std::min(kPiece, (seg_.size() + sys_page_ - 1) / sys_page_ - s);
    if (::mincore(static_cast<char*>(seg_.base()) + s * sys_page_,
                  n * sys_page_, vec_) != 0) {
      std::fill_n(vec_, n, 0);  // unknown is priced as a miss
    }
    lo_ = s;
    hi_ = s + n;
  }

  const shm::MappedSegment& seg_;
  const std::size_t sys_page_ = sys_page_bytes();
  unsigned char vec_[kPiece];
  std::size_t lo_ = 0;
  std::size_t hi_ = 0;
};

}  // namespace

PageCache::PageCache(TierConfig cfg, obs::Recorder* obs)
    : cfg_(std::move(cfg)),
      obs_(obs) {
  if (cfg_.page_bytes == 0 ||
      (cfg_.page_bytes & (cfg_.page_bytes - 1)) != 0) {
    throw HlsError("PageCache: page_bytes must be a power of two");
  }
  if (cfg_.pool_pages == 0) {
    throw HlsError("PageCache: pool_pages must be positive");
  }
  if (cfg_.read_ahead_pages == 0) cfg_.read_ahead_pages = 1;
}

PageCache::~PageCache() {
  if (uffd_ >= 0) ::close(uffd_);
  if (pagemap_ >= 0) ::close(pagemap_);
}

PageCache::Region* PageCache::region_locked(int rid) const {
  if (rid < 0 || static_cast<std::size_t>(rid) >= regions_.size()) {
    throw HlsError("PageCache: unknown region id " + std::to_string(rid));
  }
  return regions_[static_cast<std::size_t>(rid)].get();
}

int PageCache::attach(shm::MappedSegment* seg, int sid, int instance) {
  if (seg == nullptr || seg->size() == 0) {
    throw HlsError("PageCache: attach of empty segment");
  }
  const std::size_t npages =
      (seg->size() + cfg_.page_bytes - 1) / cfg_.page_bytes;
  std::lock_guard<std::mutex> lk(mu_);
  auto r = std::make_unique<Region>();
  r->seg = seg;
  r->sid = sid;
  r->instance = instance;
  r->npages = npages;
  regions_.push_back(std::move(r));
  return static_cast<int>(regions_.size() - 1);
}

bool PageCache::track_locked(Region& r) const {
  if (r.bits == Region::Bits::refused) return false;
  if (r.bits == Region::Bits::armed) {
    // Inherited descriptors still name the arming process's memory.
    if (::getpid() != uffd_pid_) return false;
  } else {
    if (uffd_ < 0 && !uffd_refused_) {
      uffd_pid_ = ::getpid();
      uffd_ = static_cast<int>(::syscall(
          SYS_userfaultfd, O_CLOEXEC | O_NONBLOCK | UFFD_USER_MODE_ONLY));
      uffdio_api api{};
      api.api = UFFD_API;
      api.features = kUffdFeatureWpAsync | kUffdFeatureWpUnpopulated;
      if (uffd_ >= 0 && ::ioctl(uffd_, UFFDIO_API, &api) == 0) {
        pagemap_ = ::open("/proc/self/pagemap", O_RDONLY | O_CLOEXEC);
      }
      uffd_refused_ = pagemap_ < 0;
    }
    if (uffd_refused_ || ::getpid() != uffd_pid_) {
      r.bits = Region::Bits::refused;
      return false;
    }
    uffdio_register reg{};
    reg.range.start = reinterpret_cast<std::uintptr_t>(r.seg->base());
    reg.range.len = mapped_bytes(*r.seg);
    reg.mode = UFFDIO_REGISTER_MODE_WP;
    if (fault::should_fail("tier:uffd") ||
        ::ioctl(uffd_, UFFDIO_REGISTER, &reg) != 0) {
      r.bits = Region::Bits::refused;
      return false;
    }
    r.bits = Region::Bits::armed;
    r.written_at.assign(r.npages, 0);
  }
  // One drain: every page written since the last one, re-protected in the
  // same call. A drain that fails part way has re-protected pages it
  // could not hand over, so the region never trusts the bits again.
  const std::uintptr_t base = reinterpret_cast<std::uintptr_t>(r.seg->base());
  PageRegion vec[kScanRanges];
  PmScanArg arg{};
  arg.size = sizeof(arg);
  arg.flags = kPmScanWpMatching | kPmScanCheckWpasync;
  arg.start = base;
  arg.end = base + mapped_bytes(*r.seg);
  arg.vec = reinterpret_cast<std::uintptr_t>(vec);
  arg.vec_len = kScanRanges;
  arg.category_mask = kPageIsWritten;
  arg.return_mask = kPageIsWritten;
  const std::uint64_t drain = ++r.drains;
  while (arg.start < arg.end) {
    const long n = fault::should_fail("tier:uffd")
                       ? -1
                       : ::ioctl(pagemap_, kPagemapScan, &arg);
    if (n < 0 || arg.walk_end <= arg.start) {
      r.bits = Region::Bits::refused;
      return false;
    }
    for (long i = 0; i < n; ++i) {
      const std::size_t first = (vec[i].start - base) / cfg_.page_bytes;
      const std::size_t last = std::min(
          (vec[i].end - 1 - base) / cfg_.page_bytes, r.npages - 1);
      std::fill(r.written_at.begin() + static_cast<std::ptrdiff_t>(first),
                r.written_at.begin() + static_cast<std::ptrdiff_t>(last) + 1,
                drain);
    }
    arg.start = arg.walk_end;
  }
  return true;
}

void PageCache::scan_locked(const Region& r,
                            const std::vector<std::size_t>* pages,
                            unsigned char* dirty, std::uint32_t* crcs) const {
  const std::size_t pb = cfg_.page_bytes;
  const std::size_t size = r.seg->size();
  const auto* base = static_cast<const unsigned char*>(r.seg->base());
  const std::size_t n = pages != nullptr ? pages->size() : r.npages;
  const auto page = [&](std::size_t i) {
    return pages != nullptr ? (*pages)[i] : i;
  };
  const auto mark = [&](std::size_t p, std::uint32_t c) {
    // `crcs` may alias base_crc (rebaseline): compare before storing.
    if (dirty != nullptr) dirty[p] = r.base_crc.empty() || c != r.base_crc[p];
    crcs[p] = c;
  };
  // Whole pages three at a time, one CRC chain each, the rest one by one.
  std::size_t i = 0;
  for (; i + 3 <= n && (page(i + 2) + 1) * pb <= size; i += 3) {
    const std::size_t p[3] = {page(i), page(i + 1), page(i + 2)};
    const unsigned char* bufs[3] = {base + p[0] * pb, base + p[1] * pb,
                                    base + p[2] * pb};
    std::uint32_t c[3];
    crc32c_x3(bufs, pb, c);
    for (std::size_t k = 0; k < 3; ++k) mark(p[k], c[k]);
  }
  for (; i < n; ++i) {
    const std::size_t p = page(i);
    mark(p, crc32c(base + p * pb, page_span(pb, size, p)));
  }
  stats_.hashed_pages += n;
  const bool full = pages == nullptr;
  ++(full ? stats_.full_passes : stats_.tracked_passes);
  if (obs_ != nullptr) {
    obs_->count(0, full ? obs::Counter::tier_crc_full_passes
                        : obs::Counter::tier_crc_tracked_passes);
  }
}

void PageCache::touch(int rid, std::size_t offset, std::size_t len,
                      int task) {
  if (len == 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  Region* r = region_locked(rid);
  const std::size_t size = r->seg->size();
  if (offset >= size) return;
  len = std::min(len, size - offset);
  const std::size_t first = offset / cfg_.page_bytes;
  const std::size_t last = (offset + len - 1) / cfg_.page_bytes;
  // One touch reads ahead at most pool_pages: of a longer range, misses
  // before `tail` are priced but not read.
  const std::size_t tail =
      last + 1 - std::min(last + 1 - first, cfg_.pool_pages);
  Residency kernel(*r->seg);
  const auto cached = [&](std::size_t p) {
    return kernel.all(p * cfg_.page_bytes, page_span(cfg_.page_bytes, size, p));
  };
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (std::size_t p = first; p <= last; ++p) {
    if (cached(p)) {
      ++hits;
      continue;
    }
    if (p < tail) {
      ++misses;
      continue;
    }
    // Miss: hint the kernel to read a window starting here. Its product
    // is the KERNEL page cache, so the pages this rank's neighbours touch
    // next — and the remainder of this access — fault from memory.
    const std::size_t wend =
        std::min({r->npages, std::max(p + cfg_.read_ahead_pages, last + 1),
                  p + cfg_.pool_pages});
    std::size_t wpages = 1;
    while (p + wpages < wend && !cached(p + wpages)) ++wpages;
    const std::size_t woff = p * cfg_.page_bytes;
    struct stat st {};
    const std::size_t eof = ::fstat(r->seg->fd(), &st) == 0
                                ? static_cast<std::size_t>(st.st_size)
                                : 0;
    std::size_t asked =
        woff < eof ? std::min(wpages * cfg_.page_bytes, eof - woff) : 0;
    if (asked > 0 &&
        ::readahead(r->seg->fd(), static_cast<off_t>(woff), asked) != 0) {
      asked = 0;  // a failed hint asked nothing
    }
    // Only pages of the *touched* range are misses; the rest of the
    // window is prefetch, priced as neither hit nor miss.
    misses += std::min(p + wpages, last + 1) - p;
    ++stats_.prereads;
    stats_.preread_bytes += asked;
    if (obs_ != nullptr) {
      obs_->count(task, obs::Counter::tier_preread_bytes, asked);
      obs::Event e;
      e.kind = obs::EventKind::tier_preread;
      e.sid = static_cast<std::int16_t>(r->sid);
      e.task = task;
      e.instance = r->instance;
      e.t0 = e.t1 = obs_->now();
      e.arg = static_cast<std::int64_t>(asked);
      e.arg2 = static_cast<std::int64_t>(wpages);
      obs_->record(e);
    }
    p += wpages - 1;  // loop's ++p steps past the window
  }
  stats_.hits += hits;
  stats_.misses += misses;
  if (obs_ != nullptr) {
    obs_->count(task, obs::Counter::tier_cache_hits, hits);
    obs_->count(task, obs::Counter::tier_cache_misses, misses);
  }
}

std::size_t PageCache::writeback(int rid, int task) {
  std::lock_guard<std::mutex> lk(mu_);
  Region* r = region_locked(rid);
  // Read before the msync: it is what the msync writes.
  const std::size_t bytes = r->seg->dirty_bytes().value_or(r->seg->size());
  r->seg->sync(0, r->seg->size(), /*blocking=*/true);
  ++stats_.writebacks;
  stats_.writeback_bytes += bytes;
  if (obs_ != nullptr) {
    obs_->count(task, obs::Counter::tier_writeback_bytes, bytes);
    obs::Event e;
    e.kind = obs::EventKind::tier_writeback;
    e.sid = static_cast<std::int16_t>(r->sid);
    e.task = task;
    e.instance = r->instance;
    e.t0 = e.t1 = obs_->now();
    e.arg = static_cast<std::int64_t>(bytes);
    e.arg2 = static_cast<std::int64_t>(r->npages);
    obs_->record(e);
  }
  return bytes;
}

TierScan PageCache::scan(int rid) const {
  std::lock_guard<std::mutex> lk(mu_);
  Region* r = region_locked(rid);
  TierScan s;
  s.crcs.resize(r->npages);
  std::vector<unsigned char> dirty(r->npages);
  if (track_locked(*r) && !r->base_crc.empty()) {
    // Only pages the kernel reported since the baselines' drain can
    // differ from them; every other page keeps its baseline CRC.
    std::vector<std::size_t> candidates;
    for (std::size_t p = 0; p < r->npages; ++p) {
      if (r->written_at[p] > r->base_drain) candidates.push_back(p);
    }
    s.crcs = r->base_crc;
    scan_locked(*r, &candidates, dirty.data(), s.crcs.data());
  } else {
    scan_locked(*r, nullptr, dirty.data(), s.crcs.data());
  }
  s.drain = r->drains;
  // Fold dirty pages into maximal spans.
  std::size_t p = 0;
  while (p < r->npages) {
    if (dirty[p] == 0) {
      ++p;
      continue;
    }
    std::size_t q = p + 1;
    while (q < r->npages && dirty[q] != 0) ++q;
    const std::size_t off = p * cfg_.page_bytes;
    s.spans.emplace_back(
        off, std::min((q - p) * cfg_.page_bytes, r->seg->size() - off));
    p = q;
  }
  return s;
}

void PageCache::rebaseline(int rid, const TierScan* published) {
  std::lock_guard<std::mutex> lk(mu_);
  Region* r = region_locked(rid);
  if (published != nullptr) {
    r->base_crc = published->crcs;
    r->base_drain = published->drain;
  } else {
    // Re-protect first, hash after: a store racing the pass is reported
    // by the next drain whether or not the pass saw it.
    track_locked(*r);
    r->base_crc.resize(r->npages);
    scan_locked(*r, nullptr, nullptr, r->base_crc.data());
    r->base_drain = r->drains;
  }
}

PageCache::Stats PageCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace hlsmpc::hls
