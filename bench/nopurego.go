//go:build !purego

package main

const puregoBuild = false
