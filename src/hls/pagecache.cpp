#include "hls/pagecache.hpp"

#include <fcntl.h>
#include <sys/stat.h>

#include <algorithm>

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
  std::vector<std::uint32_t> base_crc;     // per page, vs. last rebaseline
  std::vector<unsigned char> resident;     // 0/1 per page
  std::vector<unsigned char> noted;        // note_write hint, 0/1 per page
  std::vector<std::uint64_t> stamp;        // last-touch tick, for LRU
};

namespace {

std::size_t page_span(std::size_t page_bytes, std::size_t region_bytes,
                      std::size_t page) {
  const std::size_t off = page * page_bytes;
  return std::min(page_bytes, region_bytes - off);
}

std::uint32_t page_crc(const shm::MappedSegment& seg, std::size_t page_bytes,
                       std::size_t page) {
  return crc32c(static_cast<const unsigned char*>(seg.base()) +
                    page * page_bytes,
                page_span(page_bytes, seg.size(), page));
}

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
  if (rid < 0 || static_cast<std::size_t>(rid) >= regions_.size() ||
      regions_[static_cast<std::size_t>(rid)] == nullptr) {
    throw HlsError("PageCache: unknown region id " + std::to_string(rid));
  }
  return regions_[static_cast<std::size_t>(rid)].get();
}

int PageCache::attach(shm::MappedSegment* seg, int sid, int instance) {
  if (seg == nullptr || seg->size() == 0) {
    throw HlsError("PageCache: attach of empty segment");
  }
  auto r = std::make_unique<Region>();
  r->seg = seg;
  r->sid = sid;
  r->instance = instance;
  r->npages = (seg->size() + cfg_.page_bytes - 1) / cfg_.page_bytes;
  r->base_crc.resize(r->npages);
  r->resident.assign(r->npages, 0);
  r->noted.assign(r->npages, 0);
  r->stamp.assign(r->npages, 0);
  // Hashed before taking the lock: concurrent first touches of different
  // regions attach in parallel.
  for (std::size_t p = 0; p < r->npages; ++p) {
    r->base_crc[p] = page_crc(*seg, cfg_.page_bytes, p);
  }
  std::lock_guard<std::mutex> lk(mu_);
  stats_.hashed_pages += r->npages;
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    if (regions_[i] == nullptr) {
      regions_[i] = std::move(r);
      return static_cast<int>(i);
    }
  }
  regions_.push_back(std::move(r));
  return static_cast<int>(regions_.size() - 1);
}

void PageCache::scan_locked(const Region& r, unsigned char* dirty,
                            std::uint32_t* crcs) const {
  for (std::size_t p = 0; p < r.npages; ++p) {
    // `crcs` may alias base_crc (rebaseline): compare before storing.
    const std::uint32_t c = page_crc(*r.seg, cfg_.page_bytes, p);
    if (dirty != nullptr) dirty[p] = r.noted[p] != 0 || c != r.base_crc[p];
    crcs[p] = c;
  }
  stats_.hashed_pages += r.npages;
}

std::vector<std::pair<std::size_t, std::size_t>> PageCache::spans_locked(
    const Region& r, std::uint32_t* crcs) const {
  std::vector<unsigned char> dirty(r.npages);
  scan_locked(r, dirty.data(), crcs);
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::size_t p = 0;
  while (p < r.npages) {
    if (dirty[p] == 0) {
      ++p;
      continue;
    }
    std::size_t q = p + 1;
    while (q < r.npages && dirty[q] != 0) ++q;
    const std::size_t off = p * cfg_.page_bytes;
    out.emplace_back(off,
                     std::min((q - p) * cfg_.page_bytes, r.seg->size() - off));
    p = q;
  }
  return out;
}

void PageCache::count_writeback_locked(const Region& r, std::size_t bytes,
                                       std::size_t pages, int task) {
  ++stats_.writebacks;
  stats_.writeback_bytes += bytes;
  if (obs_ != nullptr) {
    obs_->count(task, obs::Counter::tier_writeback_bytes, bytes);
    obs::Event e;
    e.kind = obs::EventKind::tier_writeback;
    e.sid = static_cast<std::int16_t>(r.sid);
    e.task = task;
    e.instance = r.instance;
    e.t0 = e.t1 = obs_->now();
    e.arg = static_cast<std::int64_t>(bytes);
    e.arg2 = static_cast<std::int64_t>(pages);
    obs_->record(e);
  }
}

void PageCache::writeback_page_locked(Region& r, std::size_t page, int task) {
  const std::size_t off = page * cfg_.page_bytes;
  const std::size_t len = page_span(cfg_.page_bytes, r.seg->size(), page);
  r.seg->sync(off, len, /*blocking=*/true);
  r.noted[page] = 0;
  count_writeback_locked(r, len, 1, task);
}

void PageCache::evict_down_to_budget_locked(int task) {
  while (resident_pages_ > cfg_.pool_pages) {
    // Least-recently-touched resident page across all regions. A linear
    // scan: eviction runs on the cold miss path only, and the bitmap walk
    // is cheap next to the I/O it precedes.
    Region* vr = nullptr;
    std::size_t vp = 0;
    std::uint64_t vstamp = 0;
    for (auto& reg : regions_) {
      if (reg == nullptr) continue;
      for (std::size_t p = 0; p < reg->npages; ++p) {
        if (reg->resident[p] == 0) continue;
        if (vr == nullptr || reg->stamp[p] < vstamp) {
          vr = reg.get();
          vp = p;
          vstamp = reg->stamp[p];
        }
      }
    }
    if (vr == nullptr) return;  // budget smaller than bookkeeping says
    // The kernel knows whether the page was stored to since its last
    // write-back; asking it reads nothing through the mapping. Where it
    // cannot say, the page is written back: one msync of a clean page.
    const std::size_t off = vp * cfg_.page_bytes;
    const std::size_t len = page_span(cfg_.page_bytes, vr->seg->size(), vp);
    if (vr->seg->dirty_bytes(off, len).value_or(len) != 0) {
      writeback_page_locked(*vr, vp, task);
    }
    vr->seg->drop(off, len);
    vr->resident[vp] = 0;
    --resident_pages_;
    ++stats_.evictions;
  }
}

void PageCache::touch(int rid, std::size_t offset, std::size_t len,
                      int task) {
  if (len == 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  Region* r = region_locked(rid);
  if (offset >= r->seg->size()) return;
  len = std::min(len, r->seg->size() - offset);
  const std::size_t first = offset / cfg_.page_bytes;
  const std::size_t last = (offset + len - 1) / cfg_.page_bytes;
  // Of a touch longer than the pool, LRU keeps only the trailing
  // pool_pages: misses before `tail` are priced but not read, since this
  // same touch would evict them again.
  const std::size_t tail =
      last + 1 - std::min(last + 1 - first, cfg_.pool_pages);
  for (std::size_t p = first; p <= last; ++p) {
    if (r->resident[p] != 0) {
      ++stats_.hits;
      r->stamp[p] = ++tick_;
      if (obs_ != nullptr) obs_->count(task, obs::Counter::tier_cache_hits);
      continue;
    }
    if (p < tail) {
      ++stats_.misses;
      if (obs_ != nullptr) obs_->count(task, obs::Counter::tier_cache_misses);
      continue;
    }
    // Miss: hint the kernel to read a window starting here. Its product
    // is the KERNEL page cache, so the pages this rank's neighbours touch
    // next — and the remainder of this access — fault from memory. The
    // window never outgrows the pool (its tail would evict its head).
    const std::size_t wend =
        std::min({r->npages, std::max(p + cfg_.read_ahead_pages, last + 1),
                  p + cfg_.pool_pages});
    std::size_t wpages = 0;
    while (p + wpages < wend && r->resident[p + wpages] == 0) ++wpages;
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
    std::uint64_t missed = 0;
    for (std::size_t m = p; m < p + wpages; ++m) {
      r->resident[m] = 1;
      r->stamp[m] = ++tick_;
      ++resident_pages_;
      // Only pages of the *touched* range are misses; the rest of the
      // window is prefetch, priced as neither hit nor miss.
      if (m <= last) ++missed;
    }
    stats_.misses += missed;
    ++stats_.prereads;
    stats_.preread_bytes += asked;
    if (obs_ != nullptr) {
      obs_->count(task, obs::Counter::tier_cache_misses, missed);
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
    evict_down_to_budget_locked(task);
    p += wpages - 1;  // loop's ++p steps past the window
  }
}

void PageCache::note_write(int rid, std::size_t offset, std::size_t len) {
  if (len == 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  Region* r = region_locked(rid);
  if (offset >= r->seg->size()) return;
  len = std::min(len, r->seg->size() - offset);
  const std::size_t first = offset / cfg_.page_bytes;
  const std::size_t last = (offset + len - 1) / cfg_.page_bytes;
  for (std::size_t p = first; p <= last; ++p) r->noted[p] = 1;
}

std::size_t PageCache::writeback(int rid, int task) {
  std::lock_guard<std::mutex> lk(mu_);
  Region* r = region_locked(rid);
  // Read before the msync: it is what the msync writes.
  const std::size_t bytes =
      r->seg->dirty_bytes(0, r->seg->size()).value_or(r->seg->size());
  r->seg->sync(0, r->seg->size(), /*blocking=*/true);
  count_writeback_locked(*r, bytes, r->npages, task);
  return bytes;
}

TierScan PageCache::scan(int rid) const {
  std::lock_guard<std::mutex> lk(mu_);
  const Region* r = region_locked(rid);
  TierScan s{{}, std::vector<std::uint32_t>(r->npages)};
  s.spans = spans_locked(*r, s.crcs.data());
  return s;
}

void PageCache::rebaseline(int rid, const TierScan* published) {
  std::lock_guard<std::mutex> lk(mu_);
  Region* r = region_locked(rid);
  if (published != nullptr) {
    std::copy(published->crcs.begin(), published->crcs.end(),
              r->base_crc.begin());
  } else {
    scan_locked(*r, nullptr, r->base_crc.data());
  }
  std::fill(r->noted.begin(), r->noted.end(), 0);
}

PageCache::Stats PageCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace hlsmpc::hls
