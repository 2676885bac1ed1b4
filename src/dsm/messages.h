// Coherence protocol messages.  Invalidation requests travel as
// core::InvalDirective payloads on (possibly multidestination) i-reserve
// worms; everything else is a unicast CohMsg.
#pragma once

#include <cstdint>

#include "noc/worm.h"
#include "sim/types.h"

namespace mdw::dsm {

enum class MsgType : std::uint8_t {
  ReadReq,       // requester -> home
  WriteReq,      // requester -> home (miss or upgrade)
  ReadReply,     // home -> requester, data
  WriteReply,    // home -> requester, data + exclusive grant
  InvalAck,      // sharer -> home (UA frameworks)
  Recall,        // home -> owner: invalidate + write back (write request)
  RecallShare,   // home -> owner: downgrade to shared + write back (read)
  RecallData,    // owner -> home, data
  Writeback,     // owner -> home, eviction of a Modified line
  WritebackAck,  // home -> owner
};

struct CohMsg final : noc::Payload {
  MsgType type = MsgType::ReadReq;
  BlockAddr addr = 0;
  NodeId requester = kInvalidNode;  // original requester of the transaction
  TxnId txn = 0;
  std::uint64_t value = 0;          // logical block value (data worms)

  CohMsg() = default;
  CohMsg(MsgType t, BlockAddr a, NodeId r, TxnId x, std::uint64_t v = 0)
      : type(t), addr(a), requester(r), txn(x), value(v) {}
};

[[nodiscard]] constexpr bool carries_data(MsgType t) {
  return t == MsgType::ReadReply || t == MsgType::WriteReply ||
         t == MsgType::RecallData || t == MsgType::Writeback;
}

} // namespace mdw::dsm
