// Compact binary on-disk representation of shared-memory access traces.
//
// One format serves both worlds: traces recorded from the real application
// kernels (workload/apps.h) and streams materialized from the synthetic
// generators save to the same files, so any trace on disk replays through
// TraceSource/StreamRunner identically to its in-memory original.
//
// Layout (all multi-byte integers are LEB128 varints unless noted):
//
//   magic   "MDWT"            4 bytes
//   version u32 little-endian 4 bytes (currently 1)
//   nprocs       varint
//   num_barriers varint
//   per processor, in order:
//     op_count varint
//     ops:
//       tag byte: bits 0-1 OpKind, bit 2 "has arg" (arg != 0)
//       Read/Write: zigzag varint of (addr - previous addr in this proc's
//                   stream, starting from 0) — app traces walk block
//                   regions, so deltas are small and most ops take 2 bytes
//       then, if bit 2: arg varint (barrier id / think cycles / word index)
//
// Encoding is canonical (minimal-length varints, deltas fully determined
// by the ops, the arg bit set only for a nonzero arg), so
// encode(decode(bytes)) == bytes and encode(t) == encode(decode(encode(t)))
// — the round-trip tests pin both.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload/trace.h"

namespace mdw::workload {

inline constexpr std::uint32_t kBinaryTraceVersion = 1;

/// Serialize to the canonical byte form.
[[nodiscard]] std::vector<std::uint8_t> encode_trace(const Trace& t);

/// Parse bytes produced by encode_trace.  Returns false (and reports why in
/// `error` when non-null) on bad magic, unsupported version, or truncated /
/// malformed input; `out` is untouched on failure.  Malformed includes any
/// byte string encode_trace cannot produce (non-minimal varints, an arg bit
/// carrying arg 0) and any trace replay would abort on: zero processors, or
/// a processor whose barrier ids do not run 0, 1, ..., num_barriers - 1.
bool decode_trace(const std::uint8_t* data, std::size_t size, Trace& out,
                  std::string* error = nullptr);

/// File convenience wrappers.  Both return false on I/O or format errors
/// (with the reason in `error` when non-null).
bool save_trace(const Trace& t, const std::string& path,
                std::string* error = nullptr);
bool load_trace(const std::string& path, Trace& out,
                std::string* error = nullptr);

} // namespace mdw::workload
