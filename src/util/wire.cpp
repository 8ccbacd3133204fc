#include "util/wire.h"

#include <array>
#include <istream>
#include <vector>

namespace dagsched {

void CheckpointWriter::u32(std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    buf_.push_back(static_cast<char>((value >> shift) & 0xffu));
  }
}

void CheckpointWriter::u64(std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    buf_.push_back(static_cast<char>((value >> shift) & 0xffu));
  }
}

std::uint8_t CheckpointReader::u8() {
  if (remaining() < 1) fail("truncated: expected 1 more byte");
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint32_t CheckpointReader::u32() {
  if (remaining() < 4) fail("truncated: expected a 4-byte integer");
  std::uint32_t value = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    value |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(data_[pos_++]))
             << shift;
  }
  return value;
}

std::uint64_t CheckpointReader::u64() {
  if (remaining() < 8) fail("truncated: expected an 8-byte integer");
  std::uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    value |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(data_[pos_++]))
             << shift;
  }
  return value;
}

bool CheckpointReader::boolean() {
  const std::uint8_t value = u8();
  if (value > 1) {
    fail("malformed boolean (byte " + std::to_string(value) + ")");
  }
  return value == 1;
}

std::string CheckpointReader::str() {
  const std::uint64_t length = u64();
  if (length > remaining()) {
    fail("truncated: string of length " + std::to_string(length) +
         " exceeds the " + std::to_string(remaining()) + " remaining bytes");
  }
  std::string value(data_.substr(pos_, static_cast<std::size_t>(length)));
  pos_ += static_cast<std::size_t>(length);
  return value;
}

std::string_view CheckpointReader::bytes(std::size_t n) {
  if (n > remaining()) {
    fail("truncated: expected " + std::to_string(n) + " more bytes, have " +
         std::to_string(remaining()));
  }
  const std::string_view view = data_.substr(pos_, n);
  pos_ += n;
  return view;
}

std::uint64_t CheckpointReader::count(std::size_t min_element_bytes) {
  const std::uint64_t n = u64();
  const std::uint64_t floor_bytes =
      min_element_bytes == 0 ? 0 : n * static_cast<std::uint64_t>(min_element_bytes);
  if (min_element_bytes != 0 &&
      (n > remaining() || floor_bytes / min_element_bytes != n ||
       floor_bytes > remaining())) {
    fail("malformed count " + std::to_string(n) + ": needs at least " +
         std::to_string(min_element_bytes) + " bytes per element but only " +
         std::to_string(remaining()) + " remain");
  }
  return n;
}

void CheckpointReader::expect_done() {
  if (!done()) {
    fail(std::to_string(remaining()) +
         " trailing bytes after the last expected field");
  }
}

void CheckpointReader::fail(const std::string& message) const {
  throw CheckpointError(source_, region_, pos_, message);
}

namespace {

std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(std::string_view data) {
  static const std::array<std::uint32_t, 256> table = make_crc32_table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char byte : data) {
    crc = table[(crc ^ static_cast<unsigned char>(byte)) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::uint64_t fnv1a64(std::string_view data, std::uint64_t seed) {
  std::uint64_t hash = seed;
  for (const char byte : data) {
    hash ^= static_cast<unsigned char>(byte);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::uint64_t fnv1a64_stream(std::istream& in, std::size_t block_bytes) {
  std::vector<char> block(block_bytes);
  std::uint64_t hash = fnv1a64({});
  while (in) {
    in.read(block.data(), static_cast<std::streamsize>(block.size()));
    const auto got = static_cast<std::size_t>(in.gcount());
    if (got == 0) break;
    hash = fnv1a64({block.data(), got}, hash);
  }
  return hash;
}

}  // namespace dagsched
