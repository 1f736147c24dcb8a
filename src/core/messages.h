#ifndef FLEXVIS_CORE_MESSAGES_H_
#define FLEXVIS_CORE_MESSAGES_H_

#include <string>
#include <variant>

#include "core/flex_offer.h"
#include "util/status.h"

namespace flexvis::core {

/// The message protocol of the MIRABEL ICT infrastructure (Section 2 of the
/// paper): prosumers submit flex-offer messages; the enterprise answers with
/// acceptance messages before the acceptance deadline and assignment
/// messages (carrying the schedule) before the assignment deadline. Encoded
/// as JSON envelopes {"type": ..., "sent_at": ..., "payload": {...}}.

/// "We accept/reject your offer" — sent before acceptance_deadline.
struct AcceptanceMessage {
  FlexOfferId offer = kInvalidFlexOfferId;
  bool accepted = false;
  timeutil::TimePoint sent_at;

  friend bool operator==(const AcceptanceMessage& a, const AcceptanceMessage& b) {
    return a.offer == b.offer && a.accepted == b.accepted && a.sent_at == b.sent_at;
  }
};

/// "Run your appliance like this" — sent before assignment_deadline.
struct AssignmentMessage {
  FlexOfferId offer = kInvalidFlexOfferId;
  Schedule schedule;
  timeutil::TimePoint sent_at;

  friend bool operator==(const AssignmentMessage& a, const AssignmentMessage& b) {
    return a.offer == b.offer && a.schedule == b.schedule && a.sent_at == b.sent_at;
  }
};

/// Any message on the bus.
using Message = std::variant<FlexOffer, AcceptanceMessage, AssignmentMessage>;

/// Message envelope <-> JSON text. Decoding validates the payload (a
/// flex-offer payload must pass core::Validate).
///
/// Every record has one streaming encoder and one streaming decoder (no
/// document model in between). The encoders write object keys in sorted
/// order, integers as %lld and doubles as %.17g (non-finite as null). The
/// decoders accept any key order, skip unknown keys, let the last duplicate
/// key win and reject malformed JSON as a whole. A flex-offer record carries
/// every field including profile slices (RLE), schedule and aggregation
/// provenance, so DecodeFlexOffer(EncodeFlexOffer(o)) == o for valid offers.
std::string EncodeMessage(const Message& message);
Result<Message> DecodeMessage(std::string_view text);

/// Convenience single-offer codec (the common case for storage files).
std::string EncodeFlexOffer(const FlexOffer& offer);
Result<FlexOffer> DecodeFlexOffer(std::string_view text);

}  // namespace flexvis::core

#endif  // FLEXVIS_CORE_MESSAGES_H_
