"""Order sequences at the special points, and the tangent contacts.

The closed forms are {i + jn} at inflections and {i + j(n+1) - 1} minus two
values at the branches over infinity.  order_sequence returns them once its
certificate holds: the coefficient f_1 = +-(ab - 1)/n of the branch series
is nonzero, so every power of the series adds exactly one new vanishing
order.  The expected column recomputes the closed forms directly.
"""

from gfcurves import (
    branch_orders,
    expand_at_inflection,
    inflection_orders,
    make_curve,
    make_field,
    order_sequence,
)
from gfcurves.localexp import TruncatedSeries, tangent_line_branch_intersections

curve = make_curve(make_field(31), n=5, a=2, b=1)

for s in (2, 3, 4):
    infl = order_sequence(curve, "inflection", s)
    br = order_sequence(curve, "infinite-branch", s)
    print(f"s={s}: inflection {infl.orders}  expected {inflection_orders(5, s)}")
    print(f"     branch     {br.orders}  expected {branch_orders(5, s)}")

# the tangent at an inflection meets the curve with multiplicity exactly n
series = expand_at_inflection(curve, xi=1)
gap = series - TruncatedSeries.constant(curve.ctx, 1, series.prec)
print()
print(f"x(t) - xi has valuation {gap.valuation()} (= n)")

# one tangent line at infinity against all n branches: n+1 on its own
# branch, 1 on each of the others, total 2n
mults = tangent_line_branch_intersections(curve)
print(f"tangent line vs the {curve.n} branches at infinity: {mults}, "
      f"total {sum(mults)} (= 2n)")
