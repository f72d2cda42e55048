package main

import "fixture/awp"

func main() { println(awp.Run(awp.Options{})) }
