#include "cluster/wal.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "common/error.h"

namespace sb::cluster {

namespace {

/// Bump writer over a fixed stack buffer. Every record field has a bounded
/// width (ids and plan_col in decimal, cores in hexfloat), so the buffers
/// below are never full; each write is clamped to `end` all the same.
class Writer {
 public:
  Writer(char* begin, char* end) : begin_(begin), p_(begin), end_(end) {}

  void text(std::string_view s) {
    const auto room = static_cast<std::size_t>(end_ - p_);
    p_ = std::copy_n(s.data(), std::min(s.size(), room), p_);
  }
  template <typename Int>
  void number(Int v) {
    p_ = std::to_chars(p_, end_, v).ptr;
  }
  /// glibc printf's "%a", byte for byte: [-]0x1.<hex>p<exp> for normal
  /// values, [-]0x0.<hex>p-1022 for subnormals, [-]0x0p+0 for zero, the
  /// 13 mantissa hex digits with trailing zeros trimmed (none at all, and
  /// no point, when the mantissa is zero); inf and nan spelled out.
  void hexfloat(double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    const auto biased = static_cast<int>((bits >> 52) & 0x7ff);
    std::uint64_t mantissa = bits & ((std::uint64_t{1} << 52) - 1);
    if (bits >> 63 != 0) text("-");
    if (biased == 0x7ff) {
      text(mantissa == 0 ? "inf" : "nan");
      return;
    }
    const bool zero = biased == 0 && mantissa == 0;
    const int exponent = zero ? 0 : biased == 0 ? -1022 : biased - 1023;
    text(biased == 0 ? "0x0" : "0x1");
    if (mantissa != 0) {
      std::size_t digits = 13;
      while ((mantissa & 0xf) == 0) {
        mantissa >>= 4;
        --digits;
      }
      char hex[13];
      for (std::size_t i = digits; i-- > 0; mantissa >>= 4) {
        hex[i] = "0123456789abcdef"[mantissa & 0xf];
      }
      text(".");
      text(std::string_view(hex, digits));
    }
    text(exponent < 0 ? "p-" : "p+");
    number(exponent < 0 ? -exponent : exponent);
  }
  [[nodiscard]] std::string str() const { return std::string(begin_, p_); }

 private:
  char* begin_;
  char* p_;
  char* end_;
};

}  // namespace

std::string wal_shard_prefix(std::size_t shard) {
  return "wal:" + std::to_string(shard) + ":";
}

std::string wal_key(std::size_t shard, CallId call) {
  char buf[48];
  Writer w(buf, buf + sizeof(buf));
  w.text("wal:");
  w.number(shard);
  w.text(":");
  w.number(call.value());
  return w.str();
}

CallId call_from_wal_key(const std::string& key) {
  const std::size_t colon = key.rfind(':');
  require(colon != std::string::npos && colon + 1 < key.size(),
          "call_from_wal_key: malformed key");
  return CallId(
      static_cast<std::uint32_t>(std::strtoul(key.c_str() + colon + 1,
                                              nullptr, 10)));
}

std::string encode_wal_record(const RealtimeSelector::CallSnapshot& snap) {
  // Hexfloat keeps `cores` exact across the round trip; ids are stored raw
  // so the kInvalid sentinel survives too. Widest record: 120 bytes.
  char buf[160];
  Writer w(buf, buf + sizeof(buf));
  w.text("dc=");
  w.number(snap.dc.value());
  w.text(" fj=");
  w.number(snap.first_joiner.value());
  w.text(" col=");
  w.number(snap.plan_col);
  w.text(snap.holds_slot ? " slot=1 sdc=" : " slot=0 sdc=");
  w.number(snap.slot_dc.value());
  w.text(" cores=");
  w.hexfloat(snap.cores);
  w.text(" srv=");
  w.number(snap.server.value());
  return w.str();
}

RealtimeSelector::CallSnapshot decode_wal_record(const std::string& record) {
  std::uint32_t dc = 0;
  std::uint32_t fj = 0;
  std::size_t col = 0;
  int slot = 0;
  std::uint32_t sdc = 0;
  double cores = 0.0;
  std::uint32_t srv = 0;
  const int fields = std::sscanf(
      record.c_str(),
      "dc=%" SCNu32 " fj=%" SCNu32 " col=%zu slot=%d sdc=%" SCNu32
      " cores=%la srv=%" SCNu32,
      &dc, &fj, &col, &slot, &sdc, &cores, &srv);
  require(fields == 7, "decode_wal_record: malformed record");
  return RealtimeSelector::CallSnapshot{
      DcId(dc),   LocationId(fj), col,         slot != 0,
      DcId(sdc),  cores,          ServerId(srv)};
}

}  // namespace sb::cluster
