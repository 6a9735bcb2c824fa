// Messages of the point-to-point message-passing layer (Chapter III).
//
// The delivery guarantees of the paper's base layer hold by construction in
// the simulator: every received message was sent exactly once, is received
// at most once, and -- under an admissible delay policy -- arrives within
// [d-u, d] of its send time.
#pragma once

#include <cstdint>
#include <type_traits>

#include "common/time.h"

namespace linbound {

/// Algorithms define their own payload types, each as
/// `struct P final : TaggedPayload<P>`; the simulator moves payloads around
/// without inspecting them.  Payloads are constructed in the run's
/// PayloadArena (Process::make_msg) and handed around as
/// `const MessagePayload*`: immutable, arena-owned, alive for the whole run.
/// Receivers dispatch on the concrete type with payload_as<P>.
struct MessagePayload {
  virtual ~MessagePayload() = default;
  /// Identity of the concrete type: the address of its TaggedPayload tag.
  virtual const void* payload_tag() const noexcept = 0;
};

/// CRTP base of every payload type: gives `T` its own tag, so an exact-type
/// test is one virtual call and one compare.  The tag is reached through
/// the vtable every payload already has, so no payload object grows.
template <typename T>
struct TaggedPayload : MessagePayload {
  /// One object per payload type; its address is the type's identity.
  /// Non-const, so no constant merging can fold two types' tags together.
  static inline char tag = 0;
  const void* payload_tag() const noexcept final { return &tag; }
};

/// `payload` as a `T` when it is exactly a `T`, else null.  Every payload
/// type is final, so "exactly" and "derived from" are the same question.
template <typename T>
const T* payload_as(const MessagePayload& payload) {
  static_assert(std::is_final_v<T> && std::is_base_of_v<TaggedPayload<T>, T>,
                "payload types are `final : TaggedPayload<Self>`");
  return payload.payload_tag() == &TaggedPayload<T>::tag
             ? static_cast<const T*>(&payload)
             : nullptr;
}

using MessageId = std::int64_t;

struct Message {
  MessageId id = 0;  ///< unique per run; also identifies sender/recipient
  ProcessId from = kNoProcess;
  ProcessId to = kNoProcess;
  const MessagePayload* payload = nullptr;
};

}  // namespace linbound
