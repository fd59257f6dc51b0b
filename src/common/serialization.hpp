// Tiny binary serialisation layer for message payloads.
//
// Messages crossing the simulated network are flat byte vectors; Writer
// appends little-endian primitives / length-prefixed blobs, Reader
// consumes them in the same order.  Reader throws SerializationError on
// malformed input so corrupted payloads surface loudly in tests.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/buffer.hpp"
#include "common/types.hpp"

namespace adets::common {

using Bytes = std::vector<std::uint8_t>;

/// Thrown by Reader when a payload is truncated or malformed.
class SerializationError : public std::runtime_error {
 public:
  explicit SerializationError(const std::string& what) : std::runtime_error(what) {}
};

/// Appends primitives to a byte buffer.
class Writer {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }

  void blob(const Bytes& b) {
    u32(static_cast<std::uint32_t>(b.size()));
    raw(b.data(), b.size());
  }

  void blob(const SharedBytes& b) {
    u32(static_cast<std::uint32_t>(b.size()));
    raw(b.data(), b.size());
  }

  void blob(const std::uint8_t* data, std::size_t size) {
    u32(static_cast<std::uint32_t>(size));
    raw(data, size);
  }

  /// Pre-sizes the buffer; hot-path encoders reserve once instead of
  /// growing through repeated reallocations.
  void reserve(std::size_t size) { bytes_.reserve(size); }
  [[nodiscard]] std::size_t size() const { return bytes_.size(); }

  template <typename Tag, typename Rep>
  void id(StrongId<Tag, Rep> value) {
    u64(static_cast<std::uint64_t>(value.value()));
  }

  [[nodiscard]] Bytes take() { return std::move(bytes_); }
  [[nodiscard]] const Bytes& bytes() const { return bytes_; }

 private:
  void raw(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + size);
  }

  Bytes bytes_;
};

/// Consumes primitives from a byte buffer in Writer order.  Reader only
/// borrows the underlying storage — via a vector, a SharedBytes view or
/// a raw (pointer, size) span — and never copies it.
class Reader {
 public:
  explicit Reader(const Bytes& bytes) : data_(bytes.data()), size_(bytes.size()) {}
  /// Reader only borrows the buffer; binding a temporary would dangle.
  explicit Reader(Bytes&&) = delete;
  explicit Reader(const SharedBytes& bytes)
      : data_(bytes.data()), size_(bytes.size()) {}
  explicit Reader(SharedBytes&&) = delete;
  Reader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint32_t u32() { return read_pod<std::uint32_t>(); }
  std::uint64_t u64() { return read_pod<std::uint64_t>(); }
  bool boolean() { return u8() != 0; }

  std::string str() {
    const auto size = u32();
    need(size);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), size);
    pos_ += size;
    return s;
  }

  Bytes blob() {
    const auto size = u32();
    need(size);
    Bytes b(data_ + pos_, data_ + pos_ + size);
    pos_ += size;
    return b;
  }

  /// Consumes a blob but returns its (offset, length) within the buffer
  /// instead of copying it — combine with SharedBytes::slice for a
  /// zero-copy view of the payload inside its envelope.
  std::pair<std::size_t, std::size_t> blob_span() {
    const auto size = u32();
    need(size);
    const std::size_t offset = pos_;
    pos_ += size;
    return {offset, size};
  }

  template <typename IdType>
  IdType id() {
    return IdType(static_cast<typename IdType::rep_type>(u64()));
  }

  [[nodiscard]] bool exhausted() const { return pos_ == size_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

 private:
  template <typename T>
  T read_pod() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  void need(std::size_t n) const {
    if (pos_ + n > size_) {
      throw SerializationError("payload truncated: need " + std::to_string(n) +
                               " bytes at offset " + std::to_string(pos_) +
                               " of " + std::to_string(size_));
    }
  }

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
};

}  // namespace adets::common
