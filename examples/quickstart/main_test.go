package main

// Example runs the program and checks its whole output: the run is
// seeded, so any change to a printed number shows here.
func Example() {
	main()
	// Output:
	// M/M/1 quickstart: simulation vs theory
	// measure             simulated  analytic
	// ------------------  ---------  --------
	// mean sojourn W      5.209      5
	// mean population L   4.172      4
	// server utilization  0.805      0.8
	// customers           100000     100000
	//
	// simulated 124850.21705925462 time units, 380462 events
}
