from gvc.cli import main
main()
