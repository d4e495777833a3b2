package main

// Example runs the program and checks its whole output: the run is
// seeded, so any change to a printed number shows here.
func Example() {
	main()
	// Output:
	// Job stream under failure injection (400 jobs, 8 cores)
	// scenario          completed  lost  retries  failures  downtime s  mean response s
	// ----------------  ---------  ----  -------  --------  ----------  ---------------
	// reliable          400        0     0        0         0           1.856
	// crashy, no retry  386        14    0        32        618.7       9.758
	// crashy, retry     400        0     17       32        618.7       12.99
	//
	// Weibull(1.0) failures, mean TTF 120 s, lognormal repairs of mean 15 s.
}
