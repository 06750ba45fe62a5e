//===- tests/interp/StepCompare.h - Comparing interpreter steps -*- C++ -*-===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Field-by-field comparison of two StepInfos, shared by the suites that
/// hold Interpreter::run(N) to N calls of step().
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_TESTS_INTERP_STEPCOMPARE_H
#define ILDP_TESTS_INTERP_STEPCOMPARE_H

#include "interp/Interpreter.h"

#include <gtest/gtest.h>

namespace ildp {

inline void expectSameStep(const StepInfo &A, const StepInfo &B) {
  EXPECT_EQ(A.Status, B.Status);
  EXPECT_EQ(A.Pc, B.Pc);
  EXPECT_EQ(A.NextPc, B.NextPc);
  EXPECT_EQ(A.IsControl, B.IsControl);
  EXPECT_EQ(A.Taken, B.Taken);
  EXPECT_EQ(A.MemAddr, B.MemAddr);
  EXPECT_EQ(A.TrapInfo.Kind, B.TrapInfo.Kind);
  EXPECT_EQ(A.TrapInfo.Pc, B.TrapInfo.Pc);
  EXPECT_EQ(A.TrapInfo.MemAddr, B.TrapInfo.MemAddr);
  EXPECT_EQ(A.Inst.Op, B.Inst.Op);
  EXPECT_EQ(A.Inst.Ra, B.Inst.Ra);
  EXPECT_EQ(A.Inst.Rb, B.Inst.Rb);
  EXPECT_EQ(A.Inst.Rc, B.Inst.Rc);
  EXPECT_EQ(A.Inst.HasLit, B.Inst.HasLit);
  EXPECT_EQ(A.Inst.Lit, B.Inst.Lit);
  EXPECT_EQ(A.Inst.Disp, B.Inst.Disp);
  EXPECT_EQ(A.Inst.JumpHint, B.Inst.JumpHint);
  EXPECT_EQ(A.Inst.PalFunc, B.Inst.PalFunc);
}

} // namespace ildp

#endif // ILDP_TESTS_INTERP_STEPCOMPARE_H
