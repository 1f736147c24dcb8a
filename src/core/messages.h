#ifndef FLEXVIS_CORE_MESSAGES_H_
#define FLEXVIS_CORE_MESSAGES_H_

#include <string>
#include <string_view>
#include <variant>
#include <vector>

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

// ---- JSON Lines of flex-offers ---------------------------------------------
//
// The warehouse's flexoffers.jsonl and the checkpoint's offers.jsonl hold one
// EncodeFlexOffer record per line. Both directions run on the shared
// parallel pool in chunks sized by the constants below, never by the thread
// count, and merge the chunks in file order, so the bytes written and the
// offers or error read back are the same at every thread count.

/// Offers per encode chunk.
inline constexpr size_t kFlexOfferLinesEncodeChunk = 1024;

/// Bytes per decode chunk. Each chunk decodes the lines that start inside
/// its byte range, so a cut never splits a line.
inline constexpr size_t kFlexOfferLinesDecodeChunkBytes = size_t{1} << 20;

/// EncodeFlexOffer(o) + '\n' for every offer, in input order.
std::string EncodeFlexOfferLines(const std::vector<FlexOffer>& offers);

/// The first line DecodeFlexOfferLines refused, in file order.
struct FlexOfferLineError {
  size_t byte_offset = 0;  // of the line's first byte
  size_t line_number = 0;  // 1-based; blank lines count
  /// DecodeFlexOffer's verdict on a bad record; OK when the line instead
  /// repeats the id of an earlier line.
  Status bad_record;
  FlexOfferId duplicate_id = kInvalidFlexOfferId;
};

enum class DuplicateIds { kAllow, kReject };

/// Decodes every line of `text` that is not blank (empty or whitespace
/// only) into `offers`, in file order; the last line may lack its '\n'.
/// Returns false, with `offers` empty and `*error` (when non-null) naming
/// the first failing line: a record DecodeFlexOffer refuses or, under
/// DuplicateIds::kReject, a record whose id an earlier line carries.
bool DecodeFlexOfferLines(std::string_view text, DuplicateIds duplicates,
                          std::vector<FlexOffer>* offers, FlexOfferLineError* error);

}  // namespace flexvis::core

#endif  // FLEXVIS_CORE_MESSAGES_H_
