// Common scalar types shared across the simulator.
#pragma once

#include <cstdint>

namespace mdw {

/// Simulation time, measured in network cycles of 5 ns (see the timing note
/// at the top of dsm/params.h).
using Cycle = std::uint64_t;

/// Flat node identifier in a 2-D mesh, row-major: id = y * width + x.
using NodeId = std::int32_t;

/// Globally unique identifier of a coherence transaction.
using TxnId = std::uint64_t;

/// Globally unique identifier of a worm (one network message).
using WormId = std::uint64_t;

/// Cache-block address (block granularity, i.e. byte address >> log2(block)).
using BlockAddr = std::uint64_t;

inline constexpr NodeId kInvalidNode = -1;

} // namespace mdw
