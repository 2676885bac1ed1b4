#include "workload/binary_trace.h"

#include <climits>
#include <cstdio>
#include <cstring>
#include <limits>

namespace mdw::workload {

namespace {

constexpr char kMagic[4] = {'M', 'D', 'W', 'T'};

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

[[nodiscard]] constexpr std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
[[nodiscard]] constexpr std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

struct Reader {
  const std::uint8_t* p;
  const std::uint8_t* end;
  const char* error = nullptr;  // why the first read failed

  std::uint64_t varint() {
    std::uint64_t v = 0;
    int shift = 0;
    while (p < end) {
      const std::uint8_t b = *p++;
      if (shift >= 63 && b > 1) return bad("varint exceeds 64 bits");
      v |= static_cast<std::uint64_t>(b & 0x7Fu) << shift;
      if ((b & 0x80u) == 0) {
        // Ending a multi-byte varint on a zero byte pads a shorter encoding:
        // the bytes would not survive a re-encode.
        if (b == 0 && shift > 0) return bad("non-minimal varint");
        return v;
      }
      shift += 7;
    }
    return bad("truncated varint");
  }

  std::uint64_t bad(const char* why) {
    if (error == nullptr) error = why;
    return 0;
  }
};

bool fail(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
  return false;
}

} // namespace

std::vector<std::uint8_t> encode_trace(const Trace& t) {
  std::vector<std::uint8_t> out;
  // Rough pre-size: header + ~3 bytes per op.
  out.reserve(16 + 3 * t.total_ops());
  for (char c : kMagic) out.push_back(static_cast<std::uint8_t>(c));
  for (int i = 0; i < 4; ++i) {
    out.push_back(
        static_cast<std::uint8_t>((kBinaryTraceVersion >> (8 * i)) & 0xFFu));
  }
  put_varint(out, static_cast<std::uint64_t>(t.nprocs));
  put_varint(out, static_cast<std::uint64_t>(t.num_barriers));
  for (const auto& stream : t.per_proc) {
    put_varint(out, stream.size());
    BlockAddr prev = 0;
    for (const TraceOp& op : stream) {
      std::uint8_t tag = static_cast<std::uint8_t>(op.kind) & 0x3u;
      if (op.arg != 0) tag |= 0x4u;
      out.push_back(tag);
      if (op.kind == OpKind::Read || op.kind == OpKind::Write) {
        put_varint(out, zigzag(static_cast<std::int64_t>(op.addr) -
                               static_cast<std::int64_t>(prev)));
        prev = op.addr;
      }
      if (op.arg != 0) put_varint(out, op.arg);
    }
  }
  return out;
}

bool decode_trace(const std::uint8_t* data, std::size_t size, Trace& out,
                  std::string* error) {
  if (size < 8 || std::memcmp(data, kMagic, 4) != 0) {
    return fail(error, "not an MDWT trace (bad magic)");
  }
  std::uint32_t version = 0;
  for (int i = 0; i < 4; ++i) {
    version |= static_cast<std::uint32_t>(data[4 + i]) << (8 * i);
  }
  if (version != kBinaryTraceVersion) {
    return fail(error, "unsupported MDWT version");
  }
  Reader r{data + 8, data + size};
  Trace t;
  const std::uint64_t nprocs = r.varint();
  const std::uint64_t num_barriers = r.varint();
  if (r.error != nullptr) {
    return fail(error, std::string("malformed header: ") + r.error);
  }
  if (nprocs == 0) return fail(error, "trace has no processors");
  if (nprocs > (1u << 20)) return fail(error, "more than 2^20 processors");
  if (num_barriers > INT_MAX) {
    return fail(error, "barrier count exceeds 2^31-1");
  }
  t.nprocs = static_cast<int>(nprocs);
  t.num_barriers = static_cast<int>(num_barriers);
  t.per_proc.resize(nprocs);
  for (std::uint64_t p = 0; p < nprocs; ++p) {
    const std::string where = "proc " + std::to_string(p) + ": ";
    const std::uint64_t count = r.varint();
    if (r.error != nullptr) return fail(error, where + "op count: " + r.error);
    // Every op is at least one tag byte, so a count exceeding the remaining
    // payload is corrupt.  Checking BEFORE reserve() keeps an adversarial
    // count (e.g. 2^60) from forcing a multi-exabyte allocation attempt.
    if (count > static_cast<std::uint64_t>(r.end - r.p)) {
      return fail(error, where + "op count exceeds remaining payload");
    }
    auto& stream = t.per_proc[p];
    stream.reserve(count);
    BlockAddr prev = 0;
    std::uint64_t barriers = 0;  // this proc's barriers so far
    for (std::uint64_t i = 0; i < count; ++i) {
      if (r.p >= r.end) return fail(error, where + "truncated op stream");
      const std::uint8_t tag = *r.p++;
      if ((tag & ~0x7u) != 0) return fail(error, where + "bad op tag");
      TraceOp op;
      op.kind = static_cast<OpKind>(tag & 0x3u);
      if (op.kind == OpKind::Read || op.kind == OpKind::Write) {
        const std::int64_t delta = unzigzag(r.varint());
        const auto base = static_cast<std::int64_t>(prev);  // in [0, 2^63)
        if (delta > std::numeric_limits<std::int64_t>::max() - base) {
          return fail(error, where + "block address delta overflows");
        }
        const std::int64_t addr = base + delta;
        if (addr < 0) {
          return fail(error, where + "block address delta underflows");
        }
        op.addr = static_cast<BlockAddr>(addr);
        prev = op.addr;
      }
      if ((tag & 0x4u) != 0) {
        const std::uint64_t arg = r.varint();
        if (arg > 0xFFFFFFFFull) {
          return fail(error, where + "op arg exceeds 32 bits");
        }
        // The encoder sets the has-arg bit only for a nonzero arg.
        if (arg == 0 && r.error == nullptr) {
          return fail(error, where + "has-arg tag carrying arg 0");
        }
        op.arg = static_cast<std::uint32_t>(arg);
      }
      if (r.error != nullptr) return fail(error, where + "op: " + r.error);
      if (op.kind == OpKind::Barrier) {
        // Replay releases barrier k only once every proc reaches it, in
        // order: each proc's ids must run 0, 1, ..., num_barriers - 1.
        if (op.arg != barriers) {
          return fail(error, where + "barrier " + std::to_string(op.arg) +
                                 " out of order (expected " +
                                 std::to_string(barriers) + ")");
        }
        ++barriers;
      }
      stream.push_back(op);
    }
    if (barriers != num_barriers) {
      return fail(error, where + std::to_string(barriers) +
                             " barriers, header declares " +
                             std::to_string(num_barriers));
    }
  }
  if (r.p != r.end) return fail(error, "trailing bytes after trace");
  out = std::move(t);
  return true;
}

bool save_trace(const Trace& t, const std::string& path, std::string* error) {
  const std::vector<std::uint8_t> bytes = encode_trace(t);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return fail(error, "cannot open file for writing");
  const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) ==
                  bytes.size();
  std::fclose(f);
  if (!ok) return fail(error, "short write");
  return true;
}

bool load_trace(const std::string& path, Trace& out, std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return fail(error, "cannot open file for reading");
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  const bool read_err = std::ferror(f) != 0;
  std::fclose(f);
  if (read_err) return fail(error, "read error");
  return decode_trace(bytes.data(), bytes.size(), out, error);
}

} // namespace mdw::workload
