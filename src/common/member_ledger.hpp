// ESSEX: the member ledger every Fig.-4 loop keeps (§4.1, §4 point 3).
//
// A submitted ensemble member ends exactly one way: it finishes, it is
// cancelled (convergence, drain, teardown), or it is lost (failed with
// no retry left). The real runner, the DES driver and the service twin
// all report their member outcomes in this one struct, and every check
// of the zero-leak invariant goes through conserves().
#pragma once

#include <cstddef>
#include <string>

namespace essex {

struct MemberLedger {
  std::size_t members_submitted = 0;        ///< distinct members issued
  std::size_t members_done = 0;             ///< resolved done
  std::size_t members_cancelled_final = 0;  ///< resolved cancelled
  std::size_t members_lost = 0;             ///< failed, no retry left

  /// Every submitted member resolved exactly once.
  bool conserves() const {
    return members_done + members_cancelled_final + members_lost ==
           members_submitted;
  }
};

/// "done D + cancelled C + lost L of submitted S", for oracle messages.
inline std::string to_string(const MemberLedger& ledger) {
  return "done " + std::to_string(ledger.members_done) + " + cancelled " +
         std::to_string(ledger.members_cancelled_final) + " + lost " +
         std::to_string(ledger.members_lost) + " of submitted " +
         std::to_string(ledger.members_submitted);
}

}  // namespace essex
