#include "hls/pagecache.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <system_error>
#include <thread>

#include "fault/injector.hpp"
#include "hls/crc32c.hpp"
#include "hls/registry.hpp"
#include "obs/recorder.hpp"
#include "shm/segment.hpp"
#include "ult/task_context.hpp"

namespace hlsmpc::hls {

struct PageCache::Region {
  shm::MappedSegment* seg = nullptr;
  int sid = -1;
  int instance = -1;
  std::size_t npages = 0;
  /// Per-page CRC at the last rebaseline; empty before the first one.
  std::vector<std::uint32_t> base_crc;
};

namespace {

/// Least region bytes per scan share: a region splits into at most one
/// share per kScanShareBytes. Starting and joining a helper thread costs
/// about 24 us, hashing 4 MiB about 240 us (4-vCPU Xeon VM), so a helper
/// pays for itself about ten times over.
constexpr std::size_t kScanShareBytes = std::size_t{4} << 20;

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
  const std::size_t sys_page_ =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
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

PageCache::~PageCache() = default;

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
  regions_.push_back(
      std::make_unique<Region>(Region{seg, sid, instance, npages, {}}));
  return static_cast<int>(regions_.size() - 1);
}

void PageCache::scan_locked(const Region& r, unsigned char* dirty,
                            std::uint32_t* crcs) const {
  const std::size_t pb = cfg_.page_bytes;
  const auto* base = static_cast<const unsigned char*>(r.seg->base());
  const auto mark = [&](std::size_t p, std::uint32_t c) {
    // `crcs` may alias base_crc (rebaseline): compare before storing.
    if (dirty != nullptr) dirty[p] = r.base_crc.empty() || c != r.base_crc[p];
    crcs[p] = c;
  };
  // Hashes pages [lo, hi): whole pages three at a time, one CRC chain
  // each, the rest one by one. Each share writes only its own slice of
  // `dirty`/`crcs` and only reads base_crc.
  const auto hash = [&](std::size_t lo, std::size_t hi) {
    std::size_t p = lo;
    for (; p + 3 <= hi && (p + 3) * pb <= r.seg->size(); p += 3) {
      const unsigned char* pages[3] = {base + p * pb, base + (p + 1) * pb,
                                       base + (p + 2) * pb};
      std::uint32_t c[3];
      crc32c_x3(pages, pb, c);
      for (std::size_t k = 0; k < 3; ++k) mark(p + k, c[k]);
    }
    for (; p < hi; ++p) {
      mark(p, crc32c(base + p * pb, page_span(pb, r.seg->size(), p)));
    }
  };
  const std::size_t shares = scan_shares(r.seg->size());
  // Helpers take the shares from the last one down, the caller hashes
  // what is left from page 0. A helper that cannot start leaves its share
  // and every one below it to the caller.
  std::vector<std::thread> helpers;
  helpers.reserve(shares - 1);
  std::size_t mine = r.npages;
  for (std::size_t k = shares - 1; k > 0; --k) {
    const std::size_t lo = r.npages * k / shares;
    try {
      if (fault::should_fail("tier:scan_helper")) {
        throw std::system_error(
            std::make_error_code(std::errc::resource_unavailable_try_again));
      }
      helpers.emplace_back(hash, lo, mine);
    } catch (const std::exception&) {  // std::system_error or bad_alloc
      break;
    }
    mine = lo;
  }
  hash(0, mine);
  for (std::thread& t : helpers) t.join();
  stats_.hashed_pages += r.npages;
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
  const Region* r = region_locked(rid);
  TierScan s;
  s.crcs.resize(r->npages);
  std::vector<unsigned char> dirty(r->npages);
  scan_locked(*r, dirty.data(), s.crcs.data());
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
  } else {
    r->base_crc.resize(r->npages);
    scan_locked(*r, nullptr, r->base_crc.data());
  }
}

std::size_t PageCache::scan_shares(std::size_t region_bytes) const {
  const std::size_t npages =
      (region_bytes + cfg_.page_bytes - 1) / cfg_.page_bytes;
  return std::max<std::size_t>(
      std::min<std::size_t>(
          {npages, region_bytes / kScanShareBytes,
           static_cast<std::size_t>(ult::ThreadCensus::usable_cpus())}),
      1);
}

PageCache::Stats PageCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace hlsmpc::hls
