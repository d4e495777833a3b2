package main

// Example runs the program and checks its whole output: the run is
// seeded, so any change to a printed number shows here.
func Example() {
	main()
	// Output:
	// Chord-like DHT: lookup cost vs overlay size
	// peers  lookups  mean hops  2*log2(n) bound  sim time s
	// -----  -------  ---------  ---------------  ----------
	// 8      200      1.85       6                1.439
	// 16     200      2.8        8                2.24
	// 32     200      3.54       10               3.596
	// 64     200      3.1        12               3.108
	// 128    200      4.6        14               5.232
	//
	// Epidemic gossip (64 peers, fanout 2)
	// metric                   value
	// -----------------------  -----
	// rounds to full coverage  6
	// messages                 346
	//
	// Coverage vs round
	//          1 +------------------------------------------------
	//            |                                        *      *
	//            |
	//            |                                        *
	//            |
	//            |
	//            |                                 *
	//            |
	//            |
	//            |                          *
	//            |
	//            |                    *
	//            |*     *      *
	//    0.01562 +------------------------------------------------
	//             0                                              7
	//             * = coverage
}
