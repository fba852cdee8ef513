package experiments

import "fmt"

// Experiment is one experiment of the full reproduction. Run returns a
// result that renders as the experiment's table (String) and marshals
// as its `ltsp-bench -json` record.
type Experiment struct {
	Name string
	Run  func() (fmt.Stringer, error)
}

// All returns every experiment of the full reproduction
// (`ltsp-bench -run all`), in the order it runs them.
func All() []Experiment {
	return []Experiment{
		exp("fig5", RunFig5),
		exp("fig7", RunFig7),
		exp("fig8", RunFig8),
		exp("fig9", RunFig9),
		exp("fig10", RunFig10),
		exp("casestudy", RunCaseStudy),
		exp("regstats", RunRegStats),
		exp("compiletime", RunCompileTime),
		exp("versioning", RunVersioning),
		exp("sampling", RunMissSampling),
		exp("ablation", RunAblations),
		exp("oracle-gap", RunOracleGap),
	}
}

// exp adapts a Run function with a typed result to an Experiment.
func exp[T fmt.Stringer](name string, run func() (T, error)) Experiment {
	return Experiment{name, func() (fmt.Stringer, error) {
		r, err := run()
		if err != nil {
			return nil, err
		}
		return r, nil
	}}
}

// Fig5Result bundles the analytic model with its simulator validation so
// the pair renders (and marshals) as one experiment.
type Fig5Result struct {
	Analytic   []Fig5Point      `json:"analytic"`
	Validation []Fig5Validation `json:"validation"`
}

func (f Fig5Result) String() string { return FormatFig5(f.Analytic, f.Validation) }

// RunFig5 evaluates the stall-reduction law and validates it in the
// simulator.
func RunFig5() (Fig5Result, error) {
	v, err := RunFig5Validation()
	if err != nil {
		return Fig5Result{}, err
	}
	return Fig5Result{Analytic: AnalyticFig5(), Validation: v}, nil
}

// AblationResult bundles the three ablation studies.
type AblationResult struct {
	OzQ         []OzQPoint       `json:"ozq"`
	RotReg      []RotRegPoint    `json:"rot_reg"`
	RotVsUnroll []RotVsUnrollRow `json:"rot_vs_unroll"`
}

func (a AblationResult) String() string {
	return FormatAblations(a.OzQ, a.RotReg) + "\n" + FormatRotVsUnroll(a.RotVsUnroll)
}

// RunAblations runs the OzQ-capacity, rotating-file-size and
// rotation-vs-unrolling ablations.
func RunAblations() (AblationResult, error) {
	ozq, err := RunOzQAblation()
	if err != nil {
		return AblationResult{}, err
	}
	rot, err := RunRotRegAblation()
	if err != nil {
		return AblationResult{}, err
	}
	rvu, err := RunRotVsUnroll()
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{OzQ: ozq, RotReg: rot, RotVsUnroll: rvu}, nil
}
