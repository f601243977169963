// Fixture: every variant is named.
const char *
hvErrorName(HvError error)
{
    switch (error) {
      case HvError::None: return "none";
      case HvError::NotMapped: return "not-mapped";
      case HvError::Frotzed: return "frotzed";
    }
    return "?";
}
