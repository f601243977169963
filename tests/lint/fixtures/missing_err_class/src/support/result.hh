// Fixture: HvError::Frotzed has no explicit class in classifyHv.
#ifndef FIXTURE_RESULT_HH
#define FIXTURE_RESULT_HH

enum class HvError
{
    None = 0,
    NotMapped,
    Frotzed,
};

#endif
