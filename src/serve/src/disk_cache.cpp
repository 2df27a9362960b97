#include "sbmp/serve/disk_cache.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "sbmp/support/io.h"
#include "sbmp/support/strings.h"

namespace sbmp {

DiskCache::DiskCache(std::string dir, std::int64_t max_bytes,
                     MetricsRegistry* metrics)
    : dir_(std::move(dir)),
      max_bytes_(max_bytes),
      metrics_(metrics != nullptr ? metrics : &own_metrics_),
      hits_(metrics_->counter("sbmp_disk_cache_hits_total")),
      misses_(metrics_->counter("sbmp_disk_cache_misses_total")),
      stores_(metrics_->counter("sbmp_disk_cache_stores_total")),
      evictions_(metrics_->counter("sbmp_disk_cache_evictions_total")),
      io_errors_(metrics_->counter("sbmp_disk_cache_io_errors_total")) {
  init_status_ = ensure_directory(dir_);
  if (!init_status_.ok()) {
    io_errors_->inc();
    std::lock_guard<std::mutex> lock(mu_);
    last_error_ = init_status_;
  }
}

std::string DiskCache::entry_path(const Fingerprint& key) const {
  return dir_ + "/" + key.to_hex() + kEntrySuffix;
}

void DiskCache::record_error(Status status) {
  io_errors_->inc();
  std::lock_guard<std::mutex> lock(mu_);
  last_error_ = std::move(status);
}

std::optional<std::string> DiskCache::load(const Fingerprint& key) {
  if (!init_status_.ok()) return std::nullopt;
  const std::string path = entry_path(key);
  std::string payload;
  if (!file_exists(path)) {
    misses_->inc();
    return std::nullopt;
  }
  if (Status s = read_file(path, &payload); !s.ok()) {
    record_error(std::move(s));
    misses_->inc();
    return std::nullopt;
  }
  // LRU touch: a hit makes the entry the newest candidate. A failed
  // touch only skews eviction order, so it is recorded but not fatal.
  if (Status s = touch_file(path); !s.ok()) record_error(std::move(s));
  hits_->inc();
  return payload;
}

void DiskCache::store(const Fingerprint& key, std::string_view payload) {
  if (!init_status_.ok()) return;
  if (Status s = write_file_atomic(entry_path(key), payload); !s.ok()) {
    record_error(std::move(s));
    return;
  }
  stores_->inc();
  evict_to_cap();
}

void DiskCache::invalidate(const Fingerprint& key) {
  if (!init_status_.ok()) return;
  if (Status s = remove_file(entry_path(key)); !s.ok())
    record_error(std::move(s));
}

void DiskCache::evict_to_cap() {
  if (max_bytes_ <= 0) return;
  std::vector<DirEntry> entries;
  if (Status s = list_directory(dir_, &entries); !s.ok()) {
    record_error(std::move(s));
    return;
  }
  std::int64_t total = 0;
  std::vector<DirEntry> cached;
  for (auto& e : entries) {
    if (e.name.size() <= std::string_view(kEntrySuffix).size() ||
        e.name.substr(e.name.size() -
                      std::string_view(kEntrySuffix).size()) != kEntrySuffix)
      continue;  // foreign files (and in-flight temporaries) are not ours
    total += e.size;
    cached.push_back(std::move(e));
  }
  if (total <= max_bytes_) return;
  // Deterministic LRU: oldest modification first, names as tiebreak.
  std::sort(cached.begin(), cached.end(),
            [](const DirEntry& a, const DirEntry& b) {
              if (a.mtime_ns != b.mtime_ns) return a.mtime_ns < b.mtime_ns;
              return a.name < b.name;
            });
  for (const DirEntry& e : cached) {
    if (total <= max_bytes_) break;
    if (Status s = remove_file(dir_ + "/" + e.name); !s.ok()) {
      record_error(std::move(s));
      continue;
    }
    total -= e.size;
    evictions_->inc();
  }
}

Status DiskCache::last_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_error_;
}

}  // namespace sbmp
