#include "serve/cache.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "core/content_cache.hpp"
#include "core/serialize.hpp"
#include "serve/faultinject.hpp"
#include "serve/request.hpp"

namespace gia::serve {

namespace fs = std::filesystem;

struct ResultCache::Impl {
  explicit Impl(const Config& cfg)
      : lru(cfg.capacity, cfg.shards,
            [this](int) { counts.evictions.fetch_add(1, std::memory_order_relaxed); }) {}

  CounterSet<core::counters::Live> counts;
  core::ContentCache<core::TechnologyResult> lru;
  std::string dir;  ///< empty = disk disabled

  std::string path_of(std::uint64_t key) const { return dir + "/" + key_hex(key) + ".json"; }

  /// Store in memory only (disk hits are promoted through here too).
  void remember(std::uint64_t key, const ResultPtr& result) {
    if (lru.put(key, result)) counts.insertions.fetch_add(1, std::memory_order_relaxed);
  }
};

ResultCache::ResultCache() : ResultCache(Config()) {}

ResultCache::ResultCache(const Config& cfg) : impl_(std::make_unique<Impl>(cfg)) {
  std::string dir = cfg.disk_dir;
  if (dir.empty()) {
    if (const char* env = std::getenv("GIA_CACHE_DIR")) dir = env;
  }
  if (dir == "-") dir.clear();
  if (!dir.empty()) {
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
      std::fprintf(stderr, "serve cache: cannot create %s (%s), disk store disabled\n",
                   dir.c_str(), ec.message().c_str());
      dir.clear();
    }
  }
  impl_->dir = dir;
}

ResultCache::~ResultCache() = default;

ResultCache::ResultPtr ResultCache::get(std::uint64_t key) {
  if (ResultPtr hit = impl_->lru.get(key)) {
    impl_->counts.hits.fetch_add(1, std::memory_order_relaxed);
    return hit;
  }

  if (!impl_->dir.empty()) {
    std::ifstream in(impl_->path_of(key), std::ios::binary);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      try {
        auto result =
            std::make_shared<const core::TechnologyResult>(
                core::technology_result_from_json(buf.str()));
        impl_->remember(key, result);
        impl_->counts.hits.fetch_add(1, std::memory_order_relaxed);
        impl_->counts.disk_hits.fetch_add(1, std::memory_order_relaxed);
        return result;
      } catch (const std::exception& e) {
        // Corrupt disk entries degrade to a miss (the flow re-runs and
        // overwrites the entry); they never fail the request.
        std::fprintf(stderr, "serve cache: discarding corrupt entry %s (%s)\n",
                     impl_->path_of(key).c_str(), e.what());
        impl_->counts.disk_errors.fetch_add(1, std::memory_order_relaxed);
        std::error_code ec;
        fs::remove(impl_->path_of(key), ec);
      }
    }
  }

  impl_->counts.misses.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void ResultCache::put(std::uint64_t key, ResultPtr result) {
  impl_->remember(key, result);
  if (!impl_->dir.empty()) {
    // Unique tmp name (pid + atomic counter): concurrent writers of the same
    // key can no longer rename each other's partial file. Any failure leaves
    // the memory entry authoritative and removes the tmp file -- the disk
    // store degrades, the request is never affected.
    static std::atomic<std::uint64_t> tmp_counter{0};
    const std::string path = impl_->path_of(key);
    const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                            std::to_string(tmp_counter.fetch_add(1, std::memory_order_relaxed));
    if (const int fault_errno = fault::cache_write_error()) {
      std::fprintf(stderr, "serve cache: injected write failure for %s (%s)\n", path.c_str(),
                   std::strerror(fault_errno));
      impl_->counts.disk_errors.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    bool written = false;
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (out) {
        const std::string body = core::technology_result_to_json(*result);
        out.write(body.data(), static_cast<std::streamsize>(body.size()));
        out.flush();
        written = out.good();
      }
    }
    std::error_code ec;
    if (written) {
      fs::rename(tmp, path, ec);
      if (!ec) {
        impl_->counts.disk_writes.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      std::fprintf(stderr, "serve cache: cannot publish %s (%s), serving from memory\n",
                   path.c_str(), ec.message().c_str());
    } else {
      std::fprintf(stderr, "serve cache: cannot write %s, serving from memory\n", tmp.c_str());
    }
    impl_->counts.disk_errors.fetch_add(1, std::memory_order_relaxed);
    fs::remove(tmp, ec);
  }
}

ResultCache::ResultPtr ResultCache::peek(std::uint64_t key) const { return impl_->lru.peek(key); }

ResultCache::Stats ResultCache::stats() const {
  Stats s;
  core::counters::load(impl_->counts, s);
  s.entries = impl_->lru.size();
  return s;
}

bool ResultCache::disk_enabled() const { return !impl_->dir.empty(); }
const std::string& ResultCache::disk_dir() const { return impl_->dir; }

}  // namespace gia::serve
