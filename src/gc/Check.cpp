//===- gc/Check.cpp -------------------------------------------*- C++ -*-===//

#include "gc/Check.h"

using namespace gcsafe;
using namespace gcsafe::gc;

void PointerCheck::reportViolation(const void *Derived, const void *Base,
                                   const char *Context) {
  Violations.push_back(
      {Derived, Base, Context ? std::string(Context) : std::string()});
  if (Handler)
    Handler(Violations.back());
}

const void *PointerCheck::sameObj(const void *P, const void *Base,
                                  const char *Context) {
  ++CheckCount;
  // A freed base is arithmetic on a dangling pointer. Distinct from the
  // skip case (stack, statics, foreign malloc) the paper describes.
  Collector::Relation Rel = C.relate(P, Base);
  if (Rel == Collector::Relation::Freed || Rel == Collector::Relation::Other)
    reportViolation(P, Base, Context);
  return P;
}

void *PointerCheck::preIncr(void **PP, ptrdiff_t Delta, const char *Context) {
  void *Old = *PP;
  void *New = static_cast<char *>(Old) + Delta;
  sameObj(New, Old, Context);
  *PP = New;
  return New;
}

void *PointerCheck::postIncr(void **PP, ptrdiff_t Delta, const char *Context) {
  void *Old = *PP;
  void *New = static_cast<char *>(Old) + Delta;
  sameObj(New, Old, Context);
  *PP = New;
  return Old;
}
