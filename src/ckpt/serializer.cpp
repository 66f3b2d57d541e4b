// Checkpoint file I/O: a fixed 48-byte header followed by the section
// payload. Layout (all integers little-endian):
//
//   [8B magic "CSMTCKPT"][u32 version][u32 reserved]
//   [u64 spec_hash][u64 cycle][u64 payload_size]
//   [u64 header_checksum]   (FNV-1a over the preceding 40 bytes)
//   [payload]               (sections, each with its own section_checksum)
//
// read_checkpoint() validates everything — magic, version, header checksum,
// payload size, every section frame and checksum — before returning, so
// callers never apply state from a file that is truncated, corrupted, or
// written by a different format version.
#include "ckpt/serializer.hpp"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace csmt::ckpt {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kHeaderBytes = 48;

void put_u32_at(std::uint8_t* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
void put_u64_at(std::uint8_t* p, std::uint64_t v) { std::memcpy(p, &v, 8); }
std::uint32_t get_u32_at(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
std::uint64_t get_u64_at(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

/// Walks the section frames of `payload`, re-verifying every checksum.
/// Returns an empty string on success, else the violation.
std::string validate_sections(const std::vector<std::uint8_t>& payload) {
  std::size_t cur = 0;
  const std::size_t end = payload.size();
  while (cur < end) {
    if (end - cur < 4) return "truncated section name length";
    const std::uint32_t name_len = get_u32_at(payload.data() + cur);
    cur += 4;
    if (name_len > 255 || end - cur < name_len) {
      return "malformed section name";
    }
    const std::string name(
        reinterpret_cast<const char*>(payload.data() + cur), name_len);
    cur += name_len;
    if (end - cur < 8) return "truncated section length";
    const std::uint64_t plen = get_u64_at(payload.data() + cur);
    cur += 8;
    if (end - cur < plen || end - cur - static_cast<std::size_t>(plen) < 8) {
      return "section '" + name + "' exceeds file";
    }
    const std::uint64_t want =
        section_checksum(payload.data() + cur, static_cast<std::size_t>(plen));
    cur += static_cast<std::size_t>(plen);
    const std::uint64_t got = get_u64_at(payload.data() + cur);
    cur += 8;
    if (got != want) return "section '" + name + "' checksum mismatch";
  }
  return {};
}

}  // namespace

bool write_checkpoint(const std::string& path, const CheckpointMeta& meta,
                      const std::vector<std::uint8_t>& payload,
                      std::string* error) {
  std::uint8_t header[kHeaderBytes];
  std::memcpy(header, kMagic, 8);
  put_u32_at(header + 8, meta.version);
  put_u32_at(header + 12, 0);  // reserved
  put_u64_at(header + 16, meta.spec_hash);
  put_u64_at(header + 24, meta.cycle);
  put_u64_at(header + 32, payload.size());
  put_u64_at(header + 40, fnv1a_bytes(header, 40));

  std::error_code ec;
  const fs::path target(path);
  if (target.has_parent_path()) {
    fs::create_directories(target.parent_path(), ec);  // best-effort
  }
  // Write-then-rename: a SIGKILL mid-write leaves only the temporary, so
  // the previous checkpoint (if any) stays intact and loadable.
  const fs::path tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      if (error) *error = "cannot open '" + tmp.string() + "' for writing";
      return false;
    }
    out.write(reinterpret_cast<const char*>(header), kHeaderBytes);
    out.write(reinterpret_cast<const char*>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
    if (!out) {
      if (error) *error = "short write to '" + tmp.string() + "'";
      return false;
    }
  }
  fs::rename(tmp, target, ec);
  if (ec) {
    fs::remove(tmp, ec);
    if (error) *error = "cannot rename checkpoint into place";
    return false;
  }
  return true;
}

ReadResult read_checkpoint(const std::string& path) {
  ReadResult r;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    r.error = "cannot open '" + path + "'";
    return r;
  }
  std::uint8_t p[kHeaderBytes];
  if (!in.read(reinterpret_cast<char*>(p), kHeaderBytes)) {
    r.error = "file shorter than the checkpoint header";
    return r;
  }
  if (std::memcmp(p, kMagic, 8) != 0) {
    r.error = "bad magic (not a csmt checkpoint)";
    return r;
  }
  if (get_u64_at(p + 40) != fnv1a_bytes(p, 40)) {
    r.error = "header checksum mismatch";
    return r;
  }
  r.meta.version = get_u32_at(p + 8);
  if (r.meta.version != kFormatVersion) {
    r.error = "format version " + std::to_string(r.meta.version) +
              " (this build reads version " + std::to_string(kFormatVersion) +
              ")";
    return r;
  }
  r.meta.spec_hash = get_u64_at(p + 16);
  r.meta.cycle = get_u64_at(p + 24);
  const std::uint64_t payload_size = get_u64_at(p + 32);
  // The payload is read straight into its vector, whose size the header
  // gives; a hostile header could claim any size, so it must match the
  // file's own before anything is allocated.
  std::error_code ec;
  const std::uintmax_t file_size = fs::file_size(path, ec);
  if (ec || file_size - kHeaderBytes != payload_size) {
    r.error = "payload size mismatch (truncated or padded file)";
    return r;
  }
  r.payload.resize(static_cast<std::size_t>(payload_size));
  if (!in.read(reinterpret_cast<char*>(r.payload.data()),
               static_cast<std::streamsize>(payload_size)) ||
      in.peek() != std::ifstream::traits_type::eof()) {
    r.error = "payload size mismatch (truncated or padded file)";
    r.payload.clear();
    return r;
  }
  const std::string section_error = validate_sections(r.payload);
  if (!section_error.empty()) {
    r.error = section_error;
    r.payload.clear();
    return r;
  }
  r.ok = true;
  return r;
}

}  // namespace csmt::ckpt
