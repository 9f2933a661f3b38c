#include "mapreduce/state_store.h"

#include <cstdio>
#include <filesystem>
#include <utility>

#include "core/logging.h"

namespace fs = std::filesystem;

namespace wavemr {

namespace {

std::string Sanitize(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    out.push_back((std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '-' ||
                   c == '_' || c == '.')
                      ? c
                      : '_');
  }
  return out;
}

}  // namespace

StateStore::StateStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  WAVEMR_CHECK(!ec) << "cannot create state dir " << dir_ << ": " << ec.message();
}

StateStore::~StateStore() {
  if (!dir_.empty()) {
    std::error_code ec;
    fs::remove_all(dir_, ec);  // best effort
  }
}

std::string StateStore::FilePath(const std::string& name) const {
  return dir_ + "/" + Sanitize(name);
}

Status StateStore::Put(const std::string& name, std::string blob) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dir_.empty()) {
    auto it = blobs_.find(name);
    if (it != blobs_.end()) total_bytes_ -= it->second.size();
    total_bytes_ += blob.size();
    blobs_[name] = std::move(blob);
    return Status::OK();
  }
  std::FILE* f = std::fopen(FilePath(name).c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot write state " + name);
  size_t n = blob.empty() ? 0 : std::fwrite(blob.data(), 1, blob.size(), f);
  std::fclose(f);
  if (n != blob.size()) return Status::IOError("short state write " + name);
  auto it = disk_sizes_.find(name);
  if (it != disk_sizes_.end()) total_bytes_ -= it->second;
  disk_sizes_[name] = blob.size();
  total_bytes_ += blob.size();
  return Status::OK();
}

StatusOr<std::string> StateStore::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (dir_.empty()) {
    auto it = blobs_.find(name);
    if (it == blobs_.end()) return Status::NotFound("state: " + name);
    return it->second;
  }
  auto it = disk_sizes_.find(name);
  if (it == disk_sizes_.end()) return Status::NotFound("state: " + name);
  std::FILE* f = std::fopen(FilePath(name).c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot read state " + name);
  std::string blob(it->second, '\0');
  size_t n = blob.empty() ? 0 : std::fread(blob.data(), 1, blob.size(), f);
  std::fclose(f);
  if (n != blob.size()) return Status::IOError("short state read " + name);
  return blob;
}

bool StateStore::Contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return dir_.empty() ? blobs_.count(name) > 0 : disk_sizes_.count(name) > 0;
}

Status StateStore::Remove(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dir_.empty()) {
    auto it = blobs_.find(name);
    if (it == blobs_.end()) return Status::NotFound("state: " + name);
    total_bytes_ -= it->second.size();
    blobs_.erase(it);
    return Status::OK();
  }
  auto it = disk_sizes_.find(name);
  if (it == disk_sizes_.end()) return Status::NotFound("state: " + name);
  total_bytes_ -= it->second;
  disk_sizes_.erase(it);
  std::error_code ec;
  fs::remove(FilePath(name), ec);
  return ec ? Status::IOError("cannot remove state " + name) : Status::OK();
}

}  // namespace wavemr
