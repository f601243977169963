/**
 * @file
 * The one error-class table of the differential checks: coarse classes
 * shared by the concrete monitor's HvError and the flat spec's integer
 * codes.  The fuzz executor and the integration differential test both
 * compare verdicts through it.
 */

#ifndef HEV_FUZZ_ERROR_CLASS_HH
#define HEV_FUZZ_ERROR_CLASS_HH

#include "ccal/geometry.hh"
#include "support/result.hh"

namespace hev::fuzz
{

/**
 * Coarse error classes, plus Skipped for ops the executor declined to
 * run (resource guard, wrong mode).
 */
enum class Rc : u8
{
    Ok = 0,
    Invalid,
    Isolation,
    Conflict,
    Resource,
    NoSuch,
    Skipped,
    SealAuth,     //!< sealed-blob MAC / ownership rejection
    SealRollback, //!< sealed-blob anti-rollback rejection
};

constexpr u32 rcCount = 9;

inline Rc
classifyHv(HvError error)
{
    switch (error) {
      case HvError::None: return Rc::Ok;
      case HvError::InvalidParam:
      case HvError::NotAligned: return Rc::Invalid;
      case HvError::IsolationViolation:
      case HvError::PermissionDenied: return Rc::Isolation;
      case HvError::AlreadyMapped:
      case HvError::BadEnclaveState:
      case HvError::EpcmConflict: return Rc::Conflict;
      case HvError::OutOfMemory:
      case HvError::OutOfEpc: return Rc::Resource;
      case HvError::NoSuchEnclave:
      case HvError::NotMapped: return Rc::NoSuch;
      case HvError::SealAuthFailed:
      case HvError::ImageAuthFailed: return Rc::SealAuth;
      case HvError::SealRollback:
      case HvError::ImageRollback: return Rc::SealRollback;
      case HvError::ImageTruncated: return Rc::Invalid;
      // Exhaustive on purpose: -Werror=switch and tools/hev_lint.py
      // both reject an HvError variant without an explicit class, so a
      // new error cannot silently fall into a catch-all and dodge the
      // differential comparison against the spec's coarse codes.
      case HvError::Unsupported: return Rc::Invalid;
      // Invalid (not Conflict): the flat spec has no shootdown window,
      // so its reload-during-batch verdict lands in the same coarse
      // class the executor's skip-compare logic expects.
      case HvError::ShootdownInFlight: return Rc::Invalid;
    }
    return Rc::Invalid;
}

inline Rc
classifySpec(i64 code)
{
    switch (code) {
      case 0: return Rc::Ok;
      case ccal::errInvalidParam:
      case ccal::errNotAligned: return Rc::Invalid;
      case ccal::errIsolation: return Rc::Isolation;
      case ccal::errAlreadyMapped:
      case ccal::errBadState: return Rc::Conflict;
      case ccal::errOutOfMemory:
      case ccal::errOutOfEpc: return Rc::Resource;
      case ccal::errNoSuchEnclave:
      case ccal::errNotMapped: return Rc::NoSuch;
      case ccal::errSealAuth:
      case ccal::errImageAuth: return Rc::SealAuth;
      case ccal::errSealRollback:
      case ccal::errImageRollback: return Rc::SealRollback;
      case ccal::errImageTruncated: return Rc::Invalid;
      default: return Rc::Invalid;
    }
}

inline const char *
rcName(Rc rc)
{
    switch (rc) {
      case Rc::Ok: return "ok";
      case Rc::Invalid: return "invalid";
      case Rc::Isolation: return "isolation";
      case Rc::Conflict: return "conflict";
      case Rc::Resource: return "resource";
      case Rc::NoSuch: return "no-such";
      case Rc::Skipped: return "skipped";
      case Rc::SealAuth: return "seal-auth";
      case Rc::SealRollback: return "seal-rollback";
    }
    return "?";
}

} // namespace hev::fuzz

#endif // HEV_FUZZ_ERROR_CLASS_HH
