// Payload dispatch: payload_as answers "is this exactly a T" for every
// payload type in src/ and for no other, the receivers that accept one
// payload type only still throw on any other, and the tags add no bytes to
// any payload object.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <typeinfo>
#include <vector>

#include "clocksync/lundelius_lynch.h"
#include "core/centralized_algorithm.h"
#include "core/hardened_replica.h"
#include "core/recoverable_replica.h"
#include "core/replica_algorithm.h"
#include "core/synced_replica.h"
#include "core/tob_algorithm.h"
#include "degrade/mode_switching_replica.h"
#include "degrade/quorum_engine.h"
#include "types/register_type.h"

namespace linbound {
namespace {

/// One object of every payload type, built in an arena as the protocols do.
struct Corpus {
  PayloadArena arena;
  std::vector<const MessagePayload*> all;

  Corpus() {
    const auto* op = arena.make<OpBroadcastPayload>(reg::write(1), Timestamp{});
    all = {
        arena.make<ClockReadingPayload>(5),
        arena.make<CentralRequestPayload>(reg::read(), 1),
        arena.make<CentralReplyPayload>(1, Value(2)),
        arena.make<LinkDataPayload>(1, op),
        arena.make<LinkAckPayload>(1),
        arena.make<JoinRequestPayload>(1),
        arena.make<JoinSnapshotPayload>(),
        op,
        arena.make<SyncReadingPayload>(1, 2),
        arena.make<TobSubmitPayload>(reg::read(), 1, 0),
        arena.make<TobDeliverPayload>(reg::read(), 1, 0, 2),
        arena.make<EraOpPayload>(1, op),
        arena.make<QEraPayload>(1, op),
        arena.make<DrainReportPayload>(1, std::vector<BaseEntry>{}),
        arena.make<QPreparePayload>(1, Ballot{}),
        arena.make<QPromisePayload>(1, Ballot{}),
        arena.make<QAcceptPayload>(1, Ballot{}, QuorumValue{}),
        arena.make<QAcceptedPayload>(1, Ballot{}),
        arena.make<QNackPayload>(1, Ballot{}),
        arena.make<QChosenPayload>(1, QuorumValue{}),
        arena.make<QCatchupReqPayload>(1),
        arena.make<QCatchupReplyPayload>(),
    };
  }
};

/// How many payloads of the corpus payload_as<T> accepts, checking that the
/// one it accepts is returned at its own address.
template <typename T>
int accepted(const Corpus& corpus) {
  int hits = 0;
  for (const MessagePayload* p : corpus.all) {
    const T* got = payload_as<T>(*p);
    if (got == nullptr) continue;
    EXPECT_EQ(static_cast<const MessagePayload*>(got), p);
    ++hits;
  }
  return hits;
}

TEST(PayloadAs, AcceptsExactlyItsOwnType) {
  const Corpus corpus;
  ASSERT_EQ(corpus.all.size(), 22u);
  EXPECT_EQ(accepted<ClockReadingPayload>(corpus), 1);
  EXPECT_EQ(accepted<CentralRequestPayload>(corpus), 1);
  EXPECT_EQ(accepted<CentralReplyPayload>(corpus), 1);
  EXPECT_EQ(accepted<LinkDataPayload>(corpus), 1);
  EXPECT_EQ(accepted<LinkAckPayload>(corpus), 1);
  EXPECT_EQ(accepted<JoinRequestPayload>(corpus), 1);
  EXPECT_EQ(accepted<JoinSnapshotPayload>(corpus), 1);
  EXPECT_EQ(accepted<OpBroadcastPayload>(corpus), 1);
  EXPECT_EQ(accepted<SyncReadingPayload>(corpus), 1);
  EXPECT_EQ(accepted<TobSubmitPayload>(corpus), 1);
  EXPECT_EQ(accepted<TobDeliverPayload>(corpus), 1);
  EXPECT_EQ(accepted<EraOpPayload>(corpus), 1);
  EXPECT_EQ(accepted<QEraPayload>(corpus), 1);
  EXPECT_EQ(accepted<DrainReportPayload>(corpus), 1);
  EXPECT_EQ(accepted<QPreparePayload>(corpus), 1);
  EXPECT_EQ(accepted<QPromisePayload>(corpus), 1);
  EXPECT_EQ(accepted<QAcceptPayload>(corpus), 1);
  EXPECT_EQ(accepted<QAcceptedPayload>(corpus), 1);
  EXPECT_EQ(accepted<QNackPayload>(corpus), 1);
  EXPECT_EQ(accepted<QChosenPayload>(corpus), 1);
  EXPECT_EQ(accepted<QCatchupReqPayload>(corpus), 1);
  EXPECT_EQ(accepted<QCatchupReplyPayload>(corpus), 1);
  // And each payload is accepted by exactly one type: the tags are unique.
  for (std::size_t i = 0; i < corpus.all.size(); ++i) {
    for (std::size_t j = i + 1; j < corpus.all.size(); ++j) {
      EXPECT_NE(corpus.all[i]->payload_tag(), corpus.all[j]->payload_tag())
          << i << " vs " << j;
    }
  }
}

TEST(PayloadAs, SingleTypeReceiversThrowOnAForeignPayload) {
  const LinkAckPayload foreign(1);
  ReplicaProcess replica(std::make_shared<RegisterModel>(),
                         AlgorithmDelays::standard(SystemTiming{}, 0));
  EXPECT_THROW(replica.on_message(1, foreign), std::bad_cast);
  LundeliusLynchProcess clock_sync;
  EXPECT_THROW(clock_sync.on_message(1, foreign), std::bad_cast);
}

// Payload sizes, pinned (x86-64, libstdc++): the tag is reached through the
// vtable every payload already has, so tagging adds no bytes.
TEST(PayloadAs, PayloadSizesUnchanged) {
  struct Size {
    const char* name;
    std::size_t got, want;
  };
  const Size sizes[] = {
      {"ClockReading", sizeof(ClockReadingPayload), 16},
      {"CentralRequest", sizeof(CentralRequestPayload), 96},
      {"CentralReply", sizeof(CentralReplyPayload), 40},
      {"LinkData", sizeof(LinkDataPayload), 32},
      {"LinkAck", sizeof(LinkAckPayload), 24},
      {"JoinRequest", sizeof(JoinRequestPayload), 16},
      {"JoinSnapshot", sizeof(JoinSnapshotPayload), 88},
      {"OpBroadcast", sizeof(OpBroadcastPayload), 104},
      {"SyncReading", sizeof(SyncReadingPayload), 24},
      {"TobSubmit", sizeof(TobSubmitPayload), 104},
      {"TobDeliver", sizeof(TobDeliverPayload), 112},
      {"EraOp", sizeof(EraOpPayload), 24},
      {"QEra", sizeof(QEraPayload), 24},
      {"DrainReport", sizeof(DrainReportPayload), 40},
      {"QPrepare", sizeof(QPreparePayload), 32},
      {"QPromise", sizeof(QPromisePayload), 176},
      {"QAccept", sizeof(QAcceptPayload), 152},
      {"QAccepted", sizeof(QAcceptedPayload), 32},
      {"QNack", sizeof(QNackPayload), 32},
      {"QChosen", sizeof(QChosenPayload), 136},
      {"QCatchupReq", sizeof(QCatchupReqPayload), 16},
      {"QCatchupReply", sizeof(QCatchupReplyPayload), 56},
  };
  for (const Size& s : sizes) EXPECT_EQ(s.got, s.want) << s.name;
}

}  // namespace
}  // namespace linbound
