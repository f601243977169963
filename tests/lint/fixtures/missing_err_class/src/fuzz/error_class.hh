// Fixture: the catch-all swallows HvError::Frotzed.
inline Rc
classifyHv(HvError error)
{
    switch (error) {
      case HvError::None: return Rc::Ok;
      case HvError::NotMapped: return Rc::NoSuch;
      default: return Rc::Invalid; // <-- planted: no explicit Frotzed
    }
}
