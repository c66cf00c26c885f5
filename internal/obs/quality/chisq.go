package quality

// Chi-square upper-tail quantiles for the consistency acceptance bands.
// A consistent filter's Normalized Innovation Squared (NIS = ν²/S per
// scalar channel) is chi-square distributed with 1 degree of freedom, and
// its Normalized Estimation Error Squared against ground truth (NEES =
// eᵀP⁻¹e) with dim(e) degrees of freedom; a sample above the band bound
// happens with probability 1−bandConf under the consistency hypothesis.
// The monitors need only the 95% band at small dof, so the quantiles are
// tabulated rather than computed.

var chisqUpper95 = [...]float64{0, 3.841, 5.991, 7.815, 9.488, 11.070}

// ChiSquareUpper returns the upper 95% quantile of the chi-square
// distribution with dof degrees of freedom (dof clamped to [1, 5]).
func ChiSquareUpper(dof int) float64 {
	if dof < 1 {
		dof = 1
	}
	if dof > 5 {
		dof = 5
	}
	return chisqUpper95[dof]
}
